package wire

import (
	"encoding/json"
	"unsafe"

	"mpsched/internal/dfg"
)

// A batch envelope often repeats a graph: a design-space sweep compiles
// one kernel at many select points, and a client drawing its jobs from a
// hot set repeats some of them. Both codecs therefore decode each
// distinct inline graph of an envelope once (graphMemo), and encode each
// distinct *dfg.Graph once, copying its bytes into the later jobs that
// carry it. Across requests, only the caller's GraphStore shares graphs.

// decodedGraph is one distinct inline graph of an envelope, decoded: the
// validated graph, or why it did not decode.
type decodedGraph struct {
	g   *dfg.Graph
	err error
}

// graphMemo decodes the inline graphs of one form (formBinary or
// formJSON) in one request or envelope, through the caller's GraphStore
// (nil for none). Within an envelope it decodes each distinct graph
// once, keyed on its exact bytes: jobs whose graph bytes are equal share
// one *dfg.Graph, and with it the fingerprint and analyses cached on it,
// or the same error. Those keys alias the envelope's bytes instead of
// copying them, which holds because a memo lives for one DecodeBatch
// call, the bytes outlive it, and nothing writes them. A single
// request's memo has no seen map.
type graphMemo struct {
	form  byte
	store *GraphStore
	seen  map[string]decodedGraph
}

// newMemos returns a request's or an envelope's memos for binary graph
// frames and dfg JSON texts.
func newMemos(gs *GraphStore, envelope bool) (graphs, texts graphMemo) {
	graphs, texts = graphMemo{form: formBinary, store: gs}, graphMemo{form: formJSON, store: gs}
	if envelope {
		graphs.seen, texts.seen = map[string]decodedGraph{}, map[string]decodedGraph{}
	}
	return graphs, texts
}

// decode returns what raw decodes to, decoding it only for the first job
// of the envelope that carries these bytes.
func (m graphMemo) decode(raw []byte) (*dfg.Graph, error) {
	if d, ok := m.seen[string(raw)]; ok {
		return d.g, d.err
	}
	g, err := m.store.decode(m.form, raw)
	if m.seen != nil {
		m.seen[unsafe.String(unsafe.SliceData(raw), len(raw))] = decodedGraph{g, err}
	}
	return g, err
}

// decodeBinaryGraph decodes and validates a graph in the dfg binary
// framing.
func decodeBinaryGraph(raw []byte) (*dfg.Graph, error) {
	var g dfg.Graph
	if err := g.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return &g, nil
}

// decodeJSONGraph decodes and validates a graph in the dfg JSON wire
// format.
func decodeJSONGraph(raw []byte) (*dfg.Graph, error) {
	var g dfg.Graph
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, err
	}
	return &g, nil
}
