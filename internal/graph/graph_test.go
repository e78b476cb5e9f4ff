package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func diamond(t *testing.T) *Digraph {
	t.Helper()
	// 0 → {1,2} → 3
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	return g
}

func TestAddNodeAndEdge(t *testing.T) {
	g := &Digraph{}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 {
		t.Fatalf("node ids: got %d,%d", a, b)
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(a, b) {
		t.Error("edge a→b missing")
	}
	if g.HasEdge(b, a) {
		t.Error("unexpected reverse edge")
	}
	if g.M() != 1 {
		t.Errorf("M=%d, want 1", g.M())
	}
}

func TestAddEdgeDuplicateIgnored(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 1)
	if g.M() != 1 {
		t.Errorf("duplicate edge counted: M=%d", g.M())
	}
	if len(g.Succs(0)) != 1 {
		t.Errorf("duplicate succ stored: %v", g.Succs(0))
	}
}

func TestAddEdgeSelfLoopRejected(t *testing.T) {
	g := New(1)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range head accepted")
	}
	if err := g.AddEdge(-1, 1); err == nil {
		t.Error("out-of-range tail accepted")
	}
}

// TestFromEdgesMatchesAddEdge: FromEdges builds the graph AddEdge builds
// from the same edge list — same edge count, same Succs and Preds order,
// duplicates dropped — and a later AddEdge on it leaves every other
// node's lists alone.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		var edges [][2]int32
		for i := rng.Intn(4 * n); i > 0; i-- {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				edges = append(edges, [2]int32{int32(from), int32(to)}) // may repeat
			}
		}
		want := New(n)
		for _, e := range edges {
			want.MustAddEdge(int(e[0]), int(e[1]))
		}
		got := FromEdges(n, edges)
		if got.N() != n || got.M() != want.M() {
			t.Fatalf("trial %d: N=%d M=%d, want N=%d M=%d", trial, got.N(), got.M(), n, want.M())
		}
		for u := 0; u < n; u++ {
			if !slices.Equal(got.Succs(u), want.Succs(u)) || !slices.Equal(got.Preds(u), want.Preds(u)) {
				t.Fatalf("trial %d node %d: succs %v preds %v, want %v %v",
					trial, u, got.Succs(u), got.Preds(u), want.Succs(u), want.Preds(u))
			}
		}
		if n < 3 {
			continue
		}
		before := make([][]int, n)
		for u := range before {
			before[u] = slices.Clone(got.Succs(u))
		}
		if err := got.AddEdge(0, n-1); err != nil {
			t.Fatal(err)
		}
		for u := 1; u < n; u++ {
			if !slices.Equal(got.Succs(u), before[u]) {
				t.Fatalf("trial %d: AddEdge(0,%d) changed node %d's successors: %v → %v",
					trial, n-1, u, before[u], got.Succs(u))
			}
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Sources = %v, want [0]", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Sinks = %v, want [3]", got)
	}
}

func TestReverse(t *testing.T) {
	g := diamond(t)
	r := g.Reverse()
	if !r.HasEdge(3, 1) || !r.HasEdge(1, 0) {
		t.Error("reverse edges missing")
	}
	if r.M() != g.M() {
		t.Errorf("reverse M=%d, want %d", r.M(), g.M())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("clone mutation leaked into original")
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g := diamond(t)
	order, err := TopoSort(g)
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[int]int)
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topo order %v", e, order)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := New(3) // no edges: should come out in id order
	order, err := TopoSort(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range order {
		if i != n {
			t.Fatalf("order %v not id-sorted", order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	if _, err := TopoSort(g); err == nil {
		t.Error("cycle not detected")
	}
	if IsDAG(g) {
		t.Error("IsDAG true on a cycle")
	}
}

func TestReachabilityDiamond(t *testing.T) {
	g := diamond(t)
	r, err := NewReachability(g)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Follower(0, 3) {
		t.Error("3 should follow 0")
	}
	if r.Follower(3, 0) {
		t.Error("0 should not follow 3")
	}
	if r.Comparable(1, 2) {
		t.Error("1 and 2 are parallel branches")
	}
	if !r.Parallelizable(1, 2) {
		t.Error("1 ∥ 2 expected")
	}
	if r.Parallelizable(1, 1) {
		t.Error("a node is not parallelizable with itself")
	}
	if got := r.ComparablePairs(); got != 5 {
		// pairs: (0,1),(0,2),(0,3),(1,3),(2,3)
		t.Errorf("ComparablePairs = %d, want 5", got)
	}
}

func TestReachabilityMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := RandomLayeredDAG(rng, DefaultRandomDAGConfig())
		r, err := NewReachability(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			seen := make([]bool, g.N())
			var dfs func(int)
			dfs = func(x int) {
				for _, s := range g.Succs(x) {
					if !seen[s] {
						seen[s] = true
						dfs(s)
					}
				}
			}
			dfs(u)
			for v := 0; v < g.N(); v++ {
				if r.Follower(u, v) != seen[v] {
					t.Fatalf("trial %d: Follower(%d,%d)=%v, DFS says %v",
						trial, u, v, r.Follower(u, v), seen[v])
				}
			}
		}
	}
}

func TestReachabilityAncestorsMirrorDescendants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomLayeredDAG(rng, DefaultRandomDAGConfig())
	r, err := NewReachability(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if r.Descendants(u).Has(v) != r.Ancestors(v).Has(u) {
				t.Fatalf("desc/anc asymmetry between %d and %d", u, v)
			}
		}
	}
}

func TestIncomparabilitySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := RandomLayeredDAG(rng, DefaultRandomDAGConfig())
	r, err := NewReachability(g)
	if err != nil {
		t.Fatal(err)
	}
	inc := r.Incomparability()
	for u := 0; u < g.N(); u++ {
		if inc[u].Has(u) {
			t.Errorf("node %d incomparable with itself", u)
		}
		for v := 0; v < g.N(); v++ {
			if inc[u].Has(v) != inc[v].Has(u) {
				t.Errorf("incomparability not symmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestLevelsChain(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	lv, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	wantASAP := []int{0, 1, 2}
	wantALAP := []int{0, 1, 2}
	wantHeight := []int{3, 2, 1}
	for i := range wantASAP {
		if lv.ASAP[i] != wantASAP[i] || lv.ALAP[i] != wantALAP[i] || lv.Height[i] != wantHeight[i] {
			t.Errorf("node %d: got (%d,%d,%d), want (%d,%d,%d)", i,
				lv.ASAP[i], lv.ALAP[i], lv.Height[i], wantASAP[i], wantALAP[i], wantHeight[i])
		}
	}
	if lv.CriticalPathLength() != 3 {
		t.Errorf("CriticalPathLength = %d, want 3", lv.CriticalPathLength())
	}
}

func TestLevelsDiamondWithTail(t *testing.T) {
	// 0 → {1,2} → 3, plus isolated 4: ALAP of 4 = ASAPmax.
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	lv, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if lv.ASAPMax != 2 {
		t.Fatalf("ASAPMax = %d, want 2", lv.ASAPMax)
	}
	if lv.ASAP[4] != 0 || lv.ALAP[4] != 2 {
		t.Errorf("isolated node levels (%d,%d), want (0,2)", lv.ASAP[4], lv.ALAP[4])
	}
	if lv.Mobility(4) != 2 {
		t.Errorf("Mobility(4) = %d, want 2", lv.Mobility(4))
	}
}

func TestLevelsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		g := RandomLayeredDAG(rng, DefaultRandomDAGConfig())
		lv, err := ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < g.N(); n++ {
			if lv.ASAP[n] > lv.ALAP[n] {
				t.Fatalf("ASAP > ALAP at node %d", n)
			}
			if lv.ALAP[n] > lv.ASAPMax {
				t.Fatalf("ALAP beyond ASAPMax at node %d", n)
			}
			if lv.Height[n] < 1 {
				t.Fatalf("Height < 1 at node %d", n)
			}
			// Height + ASAP ≤ critical path length.
			if lv.ASAP[n]+lv.Height[n] > lv.ASAPMax+1 {
				t.Fatalf("ASAP+Height exceeds critical path at node %d", n)
			}
		}
		for _, e := range g.Edges() {
			if lv.ASAP[e[0]] >= lv.ASAP[e[1]] {
				t.Fatalf("ASAP not increasing along edge %v", e)
			}
			if lv.ALAP[e[0]] >= lv.ALAP[e[1]] {
				t.Fatalf("ALAP not increasing along edge %v", e)
			}
			if lv.Height[e[0]] <= lv.Height[e[1]] {
				t.Fatalf("Height not decreasing along edge %v", e)
			}
		}
	}
}

func TestSpan(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	lv, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := lv.Span(nil); got != 0 {
		t.Errorf("Span(∅) = %d, want 0", got)
	}
	if got := lv.Span([]int{1}); got != 0 {
		t.Errorf("Span({1}) = %d, want 0", got)
	}
	// {0,3}: maxASAP=3, minALAP=0 → span 3.
	if got := lv.Span([]int{0, 3}); got != 3 {
		t.Errorf("Span({0,3}) = %d, want 3", got)
	}
}

func TestSpanClampedToZero(t *testing.T) {
	// Two independent chains: picking both heads gives negative raw span.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	lv, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := lv.Span([]int{0, 2}); got != 0 {
		t.Errorf("Span = %d, want 0 (clamped)", got)
	}
}

func TestRandomLayeredDAGIsDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		g := RandomLayeredDAG(rng, RandomDAGConfig{
			Layers: 1 + rng.Intn(6), WidthMin: 1, WidthMax: 5,
			EdgeProb: rng.Float64(), LongEdgeProb: rng.Float64() * 0.2,
		})
		if !IsDAG(g) {
			t.Fatalf("trial %d produced a cyclic graph", trial)
		}
	}
}

func TestRandomLayeredDAGConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := RandomLayeredDAG(rng, RandomDAGConfig{Layers: 4, WidthMin: 2, WidthMax: 4, EdgeProb: 0.01})
	lv, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	// Even at near-zero EdgeProb every non-source node has a predecessor,
	// so exactly the first layer has ASAP 0.
	for n := 0; n < g.N(); n++ {
		if g.InDegree(n) == 0 && lv.ASAP[n] != 0 {
			t.Fatalf("source node %d with nonzero ASAP", n)
		}
	}
}
