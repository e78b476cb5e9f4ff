// Package graph provides the directed-graph substrate underneath the
// data-flow graphs used by the multi-pattern scheduler: adjacency storage,
// topological ordering, bitset-based reachability, longest-path levels,
// random DAG generation for tests, and DOT export.
//
// Nodes are dense integer ids [0, N). Domain metadata (operation colors,
// names) lives in higher layers (package dfg); this package is purely
// structural so it can be reused and tested in isolation.
package graph

import "fmt"

// Digraph is a directed graph over dense node ids. The zero value is an
// empty graph; add nodes with AddNodes/AddNode and edges with AddEdge.
type Digraph struct {
	succs [][]int
	preds [][]int
	edges int
}

// New returns a digraph with n nodes (ids 0..n-1) and no edges.
func New(n int) *Digraph {
	g := &Digraph{}
	g.AddNodes(n)
	return g
}

// AddNode appends one node and returns its id.
func (g *Digraph) AddNode() int {
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return len(g.succs) - 1
}

// FromEdges returns a digraph on n nodes holding edges, exactly as New(n)
// followed by AddEdge on each edge in order builds it: the same Succs and
// Preds order, duplicates ignored. Each adjacency list is sized once from
// the edge list and carved out of one backing array, so construction costs
// a fixed handful of allocations instead of one per growing list. Edges
// are int32 pairs, half the size of int ones, since decoders hold the
// whole list while they read it. Every endpoint must lie in [0, n) and no
// edge may be a self-loop; it panics otherwise, so decoders check both
// first to report them as errors.
func FromEdges(n int, edges [][2]int32) *Digraph {
	adj := make([][]int, 2*n)
	g := &Digraph{succs: adj[:n:n], preds: adj[n:]}
	deg := make([]int32, 2*n) // out-degrees, then in-degrees, duplicates counted
	for _, e := range edges {
		if e[0] == e[1] {
			panic(fmt.Sprintf("graph: self-loop on node %d", e[0]))
		}
		deg[e[0]]++
		deg[n+int(e[1])]++
	}
	// Each list gets capacity for its duplicates too, and a full slice
	// expression caps it there: a later AddEdge reallocates rather than
	// writing into the next node's list.
	flat := make([]int, 2*len(edges))
	for i, d := range deg {
		if d > 0 {
			adj[i] = flat[:0:d]
			flat = flat[d:]
		}
	}
	for _, e := range edges {
		from, to := int(e[0]), int(e[1])
		if g.HasEdge(from, to) {
			continue
		}
		g.succs[from] = append(g.succs[from], to)
		g.preds[to] = append(g.preds[to], from)
		g.edges++
	}
	return g
}

// AddNodes appends n nodes.
func (g *Digraph) AddNodes(n int) {
	for i := 0; i < n; i++ {
		g.AddNode()
	}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.succs) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.edges }

// AddEdge inserts the directed edge from → to. Duplicate edges are ignored
// (the graph stays simple); self-loops are rejected.
func (g *Digraph) AddEdge(from, to int) error {
	if err := g.checkNode(from); err != nil {
		return err
	}
	if err := g.checkNode(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d", from)
	}
	if g.HasEdge(from, to) {
		return nil
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge for statically-known-valid construction code.
func (g *Digraph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

func (g *Digraph) checkNode(i int) error {
	if i < 0 || i >= len(g.succs) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", i, len(g.succs))
	}
	return nil
}

// HasEdge reports whether the edge from → to exists.
func (g *Digraph) HasEdge(from, to int) bool {
	if from < 0 || from >= len(g.succs) {
		return false
	}
	for _, s := range g.succs[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Succs returns the direct successors of n. The returned slice is owned by
// the graph and must not be mutated.
func (g *Digraph) Succs(n int) []int { return g.succs[n] }

// Preds returns the direct predecessors of n. The returned slice is owned by
// the graph and must not be mutated.
func (g *Digraph) Preds(n int) []int { return g.preds[n] }

// OutDegree returns the number of direct successors of n.
func (g *Digraph) OutDegree(n int) int { return len(g.succs[n]) }

// InDegree returns the number of direct predecessors of n.
func (g *Digraph) InDegree(n int) int { return len(g.preds[n]) }

// Sources returns all nodes with no predecessors, in id order.
func (g *Digraph) Sources() []int {
	var out []int
	for i := range g.preds {
		if len(g.preds[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns all nodes with no successors, in id order.
func (g *Digraph) Sinks() []int {
	var out []int
	for i := range g.succs {
		if len(g.succs[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		succs: make([][]int, len(g.succs)),
		preds: make([][]int, len(g.preds)),
		edges: g.edges,
	}
	for i := range g.succs {
		c.succs[i] = append([]int(nil), g.succs[i]...)
		c.preds[i] = append([]int(nil), g.preds[i]...)
	}
	return c
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	r := New(g.N())
	for u := range g.succs {
		for _, v := range g.succs[u] {
			r.MustAddEdge(v, u)
		}
	}
	return r
}

// Edges returns all edges as (from, to) pairs in from-major order.
func (g *Digraph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := range g.succs {
		for _, v := range g.succs[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}
