package dfg

import (
	"fmt"
	"hash/maphash"

	"mpsched/internal/graph"
)

// assembler builds a decoded graph in one construction pass, for both wire
// decoders (UnmarshalBinary, UnmarshalJSON). It makes the checks AddNode
// and AddDep make, in the order the decoders reach them and with the same
// errors, but sizes the node slice once from the decoded count, collects
// the edges, and builds the adjacency from them in one pass
// (graph.FromEdges). No lazy cache exists until the graph is complete, so
// nothing is invalidated per element, and the graph's name map is left to
// be built on first use: duplicate names are caught by a nameSet, which
// lives only as long as the assembler.
type assembler struct {
	g     *Graph
	names nameSet
	edges [][2]int32
}

func newAssembler(name string, nodes int) *assembler {
	return &assembler{
		g:     &Graph{Name: name, nodes: make([]Node, 0, nodes)},
		names: newNameSet(nodes),
	}
}

// node appends *n, failing as AddNode does: an empty name or color, or
// ErrDuplicateName.
func (a *assembler) node(n *Node) error {
	if err := checkNode(n); err != nil {
		return err
	}
	if !a.names.add(a.g.nodes, n.Name) {
		return duplicateName(n.Name)
	}
	a.g.nodes = append(a.g.nodes, *n)
	return nil
}

// expectEdges sizes the edge list for m edges, before the first edge call.
func (a *assembler) expectEdges(m int) { a.edges = make([][2]int32, 0, m) }

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
	a.edges = append(a.edges, [2]int32{int32(from), int32(to)})
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

// nameSet is the set of node names an assembler has seen: an
// open-addressed table of node ids hashed by name, kept at most half
// full: two to four 4-byte slots per node.
type nameSet struct {
	slots []int32 // node id + 1; 0 marks a free slot
}

var nameSeed = maphash.MakeSeed()

// newNameSet sizes a set for the given number of nodes.
func newNameSet(nodes int) nameSet {
	size := 8
	for size < 2*nodes {
		size *= 2
	}
	return nameSet{slots: make([]int32, size)}
}

// add records name as the node after nodes, whose names the set holds,
// reporting false when one of them has it.
func (s *nameSet) add(nodes []Node, name string) bool {
	if 2*(len(nodes)+1) > len(s.slots) {
		s.slots = make([]int32, 2*len(s.slots))
		for id := range nodes {
			s.insert(nodes, id, nodes[id].Name)
		}
	}
	return s.insert(nodes, len(nodes), name)
}

// insert puts id into the first free slot from name's hash on, unless a
// node of that name holds a slot on the way.
func (s *nameSet) insert(nodes []Node, id int, name string) bool {
	mask := uint64(len(s.slots) - 1)
	for i := maphash.String(nameSeed, name) & mask; ; i = (i + 1) & mask {
		switch held := s.slots[i]; {
		case held == 0:
			s.slots[i] = int32(id + 1)
			return true
		case nodes[held-1].Name == name:
			return false
		}
	}
}
