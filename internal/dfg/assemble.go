package dfg

import (
	"fmt"

	"mpsched/internal/graph"
)

// assembler builds a decoded graph in one construction pass, for both wire
// decoders (UnmarshalBinary, UnmarshalJSON). It makes the checks AddNode
// and AddDep make, in the order the decoders reach them and with the same
// errors, but sizes the node slice and name map once from the decoded
// count, collects the edges, and builds the adjacency from them in one
// pass (graph.FromEdges). No lazy cache exists until the graph is
// complete, so nothing is invalidated per element.
type assembler struct {
	g     *Graph
	edges [][2]int
}

func newAssembler(name string, nodes int) *assembler {
	return &assembler{g: &Graph{
		Name:   name,
		nodes:  make([]Node, 0, nodes),
		byName: make(map[string]int, nodes),
	}}
}

// node appends *n, failing as AddNode does: an empty name or color, or
// ErrDuplicateName.
func (a *assembler) node(n *Node) error {
	if err := a.g.checkNewNode(n); err != nil {
		return err
	}
	a.g.byName[n.Name] = len(a.g.nodes)
	a.g.nodes = append(a.g.nodes, *n)
	return nil
}

// expectEdges sizes the edge list for m edges, before the first edge call.
func (a *assembler) expectEdges(m int) { a.edges = make([][2]int, 0, m) }

// edge records the dependency from → to once every node is in, failing
// with ErrIndexRange for an endpoint outside [0, N) and then with
// ErrCyclic for a self-loop. Duplicates are kept here and dropped when the
// adjacency is built, as AddDep drops them.
func (a *assembler) edge(from, to int) error {
	if n := len(a.g.nodes); from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("dfg: edge [%d %d]: %w (graph has %d nodes)", from, to, ErrIndexRange, n)
	}
	if from == to {
		return fmt.Errorf("dfg: edge %d→%d: %w (self-loop)", from, to, ErrCyclic)
	}
	a.edges = append(a.edges, [2]int{from, to})
	return nil
}

// graph builds the adjacency and validates the result. The passing
// validation is cached on the graph, so compiling it does not repeat it.
func (a *assembler) graph() (*Graph, error) {
	a.g.g = graph.FromEdges(len(a.g.nodes), a.edges)
	if err := a.g.Validate(); err != nil {
		return nil, err
	}
	return a.g, nil
}
