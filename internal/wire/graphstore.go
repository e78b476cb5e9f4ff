package wire

import (
	"unsafe"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/store"
)

// A fleet router places each (graph, config) on the replica that caches
// its result, so a design-space sweep sends it the same graph bytes again
// and again. GraphStore lets it decode, validate and fingerprint each
// distinct graph once: ReadRequest and ReadBatch resolve every inline
// graph through the caller's store, and a repeat costs one lookup and
// comes back with the fingerprint the first request cached on it.
//
// The daemon keeps a store for workload specs only, and passes none to
// ReadRequest or ReadBatch, so its inline graphs decode on every
// request; README "Fleet" gives the measurement that holds a daemon-side
// graph store back.

// GraphStore is a bounded, concurrency-safe store of decoded graphs:
// workload specs by their text and inline graphs by their exact wire
// bytes, each key tagged by its form. Stored graphs are shared by every
// request that resolves to them and must be treated as read-only. The
// nil *GraphStore stores nothing: every spec is generated and every
// graph decoded.
type GraphStore struct {
	m *store.Memory[*dfg.Graph]
}

const (
	// graphStoreEntries bounds a GraphStore.
	graphStoreEntries = 512
	// maxStoredGraph is the largest inline graph, in wire bytes, that a
	// GraphStore admits, so its keys hold at most 8 MiB; a larger graph
	// decodes on every request.
	maxStoredGraph = 16 << 10
)

// The forms a GraphStore key is tagged by, so equal bytes in two forms
// never share an entry.
const (
	formSpec   = 's' // a workload spec
	formJSON   = 'j' // a graph in the dfg JSON wire format
	formBinary = 'b' // a graph in the dfg binary framing
)

// NewGraphStore returns an empty store of graphStoreEntries entries.
func NewGraphStore() *GraphStore {
	return &GraphStore{m: store.NewMemory[*dfg.Graph](graphStoreEntries, 1)}
}

// Workload resolves a workload spec to its generated graph.
func (s *GraphStore) Workload(spec string) (*dfg.Graph, error) {
	if s == nil {
		return cliutil.Generate(spec)
	}
	// The spec's bytes are only read, and only while resolve runs.
	return s.resolve(formSpec, unsafe.Slice(unsafe.StringData(spec), len(spec)), generateSpec)
}

// Stats reports the store's lookups, evictions and entries; a nil store
// reports zeros.
func (s *GraphStore) Stats() store.Stats {
	if s == nil {
		return store.Stats{}
	}
	return s.m.Stats()
}

// decode returns the graph raw holds in form (formJSON or formBinary),
// decoded and validated.
func (s *GraphStore) decode(form byte, raw []byte) (*dfg.Graph, error) {
	decode := decodeJSONGraph
	if form == formBinary {
		decode = decodeBinaryGraph
	}
	if s == nil {
		return decode(raw)
	}
	return s.resolve(form, raw, decode)
}

// resolve returns the graph stored under form and raw, or else builds
// it and stores it when raw is at most maxStoredGraph bytes; bytes that
// did not build a graph are not stored, and fail again on every repeat.
// The lookup key aliases a pooled buffer and a stored key is a copy, so
// no stored key aliases raw, whose buffer may be pooled too.
func (s *GraphStore) resolve(form byte, raw []byte, build func([]byte) (*dfg.Graph, error)) (*dfg.Graph, error) {
	kp := getBuf()
	defer putBuf(kp)
	key := append(append((*kp)[:0], form), raw...)
	*kp = key
	if g, ok := s.m.Get(unsafe.String(unsafe.SliceData(key), len(key))); ok {
		return g, nil
	}
	g, err := build(raw)
	if err != nil {
		return nil, err
	}
	if len(raw) <= maxStoredGraph {
		s.m.Put(string(key), g)
	}
	return g, nil
}

func generateSpec(spec []byte) (*dfg.Graph, error) { return cliutil.Generate(string(spec)) }
