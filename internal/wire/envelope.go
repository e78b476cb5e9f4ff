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
// carry it. Nothing is shared across requests, and single requests share
// nothing.

// decodedGraph is one distinct inline graph of an envelope, decoded: the
// validated graph, or why it did not decode.
type decodedGraph struct {
	g   *dfg.Graph
	err error
}

// graphMemo decodes each distinct inline graph of one envelope once,
// keyed on its exact bytes: jobs whose graph bytes are equal share one
// *dfg.Graph, and with it the fingerprint and analyses cached on it, or
// the same error. Keys alias the envelope's bytes instead of copying
// them, which holds because a memo lives for one DecodeBatch call, the
// bytes outlive it, and nothing writes them. A nil memo decodes every
// graph it is given.
type graphMemo map[string]decodedGraph

// decode returns what decode makes of raw, calling it only for the first
// job of the envelope that carries these bytes.
func (m graphMemo) decode(raw []byte, decode func([]byte) (*dfg.Graph, error)) (*dfg.Graph, error) {
	if m == nil {
		return decode(raw)
	}
	if d, ok := m[string(raw)]; ok {
		return d.g, d.err
	}
	g, err := decode(raw)
	m[unsafe.String(unsafe.SliceData(raw), len(raw))] = decodedGraph{g, err}
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
