package graph

import "fmt"

// TopoSort returns a topological ordering of the graph using Kahn's
// algorithm, or an error naming one node on a cycle if the graph is not a
// DAG. Among ready nodes the smallest id is emitted first, making the order
// deterministic.
func TopoSort(g *Digraph) ([]int, error) {
	n := g.N()
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.InDegree(i))
	}
	// A simple binary-heap-free selection: maintain a sorted-insert queue.
	// DFGs are small (≤ a few thousand nodes); an O(n log n) ready heap is
	// plenty and keeps the order deterministic.
	ready := newMinQueue(n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	order := make([]int, 0, n)
	for ready.len() > 0 {
		u := ready.pop()
		order = append(order, u)
		for _, v := range g.Succs(u) {
			indeg[v]--
			if indeg[v] == 0 {
				ready.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, cycleError(indeg)
	}
	return order, nil
}

// cycleError names the smallest node Kahn's algorithm left unprocessed,
// given the in-degrees it left: a node on a cycle or downstream of one.
func cycleError(indeg []int32) error {
	for i, d := range indeg {
		if d > 0 {
			return fmt.Errorf("graph: cycle detected involving node %d", i)
		}
	}
	return fmt.Errorf("graph: cycle detected")
}

// CheckAcyclic returns the error TopoSort returns for g, nil for a DAG,
// without building the order: it takes ready nodes off a stack instead
// of TopoSort's min-queue. The node the error names is the same, because
// the set of nodes Kahn's algorithm leaves unprocessed does not depend
// on the order it takes ready nodes in.
func CheckAcyclic(g *Digraph) error {
	n := g.N()
	scratch := make([]int32, 2*n)
	indeg, ready := scratch[:n], scratch[n:n]
	for i := range indeg {
		indeg[i] = int32(g.InDegree(i))
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	done := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, v := range g.Succs(int(u)) {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, int32(v))
			}
		}
	}
	if done != n {
		return cycleError(indeg)
	}
	return nil
}

// IsDAG reports whether the graph has no directed cycles.
func IsDAG(g *Digraph) bool {
	return CheckAcyclic(g) == nil
}

// minQueue is a small binary min-heap of ints.
type minQueue struct{ a []int }

func newMinQueue(capacity int) *minQueue {
	return &minQueue{a: make([]int, 0, capacity)}
}

func (q *minQueue) len() int { return len(q.a) }

func (q *minQueue) push(v int) {
	q.a = append(q.a, v)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.a[parent] <= q.a[i] {
			break
		}
		q.a[parent], q.a[i] = q.a[i], q.a[parent]
		i = parent
	}
}

func (q *minQueue) pop() int {
	top := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a = q.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.a) && q.a[l] < q.a[smallest] {
			smallest = l
		}
		if r < len(q.a) && q.a[r] < q.a[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.a[i], q.a[smallest] = q.a[smallest], q.a[i]
		i = smallest
	}
	return top
}
