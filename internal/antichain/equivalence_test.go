package antichain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpsched/internal/dfg"
	"mpsched/internal/graph"
	"mpsched/internal/pattern"
	"mpsched/internal/workloads"
)

// This file pins the interned zero-allocation enumeration core to the
// original implementation: a DFS that cloned a candidate bitset per
// extension, materialised a pattern value (copy + sort) and string key per
// antichain, and classified through a map lookup. The reference below is
// that implementation, kept verbatim as test-only code; the census — and
// everything selection derives from it — must be identical.

// referenceEnumerator is the pre-interning DFS.
type referenceEnumerator struct {
	inc     []*graph.BitSet
	asap    []int
	alap    []int
	maxSize int
	maxSpan int
	fn      func([]int) bool
	current []int
}

func (e *referenceEnumerator) extend(v int, cand *graph.BitSet, maxASAP, minALAP int) bool {
	span := maxASAP - minALAP
	if span < 0 {
		span = 0
	}
	if e.maxSpan >= 0 && span > e.maxSpan {
		return true
	}
	e.current = append(e.current, v)
	ok := e.fn(e.current)
	if ok && len(e.current) < e.maxSize {
		var next *graph.BitSet
		if cand == nil {
			next = e.inc[v].Clone()
		} else {
			next = cand.Clone()
			next.And(e.inc[v])
		}
		next.ForEach(func(w int) bool {
			if w <= v {
				return true
			}
			ma, mi := maxASAP, minALAP
			if e.asap[w] > ma {
				ma = e.asap[w]
			}
			if e.alap[w] < mi {
				mi = e.alap[w]
			}
			ok = e.extend(w, next, ma, mi)
			return ok
		})
	}
	e.current = e.current[:len(e.current)-1]
	return ok
}

// referenceForEach streams every bounded antichain to fn in the reference
// DFS's canonical order, as ForEach does.
func referenceForEach(d *dfg.Graph, cfg Config, fn func([]int) bool) {
	reach := d.Reach()
	lv := d.Levels()
	e := &referenceEnumerator{
		inc:     reach.Incomparability(),
		asap:    lv.ASAP,
		alap:    lv.ALAP,
		maxSize: cfg.MaxSize,
		maxSpan: cfg.MaxSpan,
		current: make([]int, 0, cfg.MaxSize),
		fn:      fn,
	}
	for v := 0; v < d.N(); v++ {
		if !e.extend(v, nil, lv.ASAP[v], lv.ALAP[v]) {
			break
		}
	}
}

// enumerateReference is the original Enumerate: per-antichain pattern.New
// + Key() + map[string] classification. It returns a Result without ByID,
// exactly the shape hand-built censuses have.
func enumerateReference(t testing.TB, d *dfg.Graph, cfg Config) *Result {
	t.Helper()
	res := &Result{
		BySize:    make([]int, cfg.MaxSize+1),
		Classes:   map[string]*Class{},
		NodeCount: d.N(),
	}
	referenceForEach(d, cfg, func(nodes []int) bool {
		res.BySize[len(nodes)]++
		colors := make([]dfg.Color, len(nodes))
		for i, n := range nodes {
			colors[i] = d.ColorOf(n)
		}
		p := pattern.New(colors...)
		key := p.Key()
		cl := res.Classes[key]
		if cl == nil {
			cl = &Class{Pattern: p, NodeFreq: make([]int, d.N())}
			res.Classes[key] = cl
		}
		cl.Count++
		for _, n := range nodes {
			cl.NodeFreq[n]++
		}
		if cfg.KeepSets {
			cl.Sets = append(cl.Sets, append([]int(nil), nodes...))
		}
		return true
	})
	return res
}

// equivalenceWorkloads is the catalog fleet the equivalence suite covers.
func equivalenceWorkloads(t testing.TB) map[string]*dfg.Graph {
	t.Helper()
	out := map[string]*dfg.Graph{
		"3dft": workloads.ThreeDFT(),
		"fig4": workloads.Fig4Small(),
	}
	for name, gen := range map[string]func() (*dfg.Graph, error){
		"4dft":       func() (*dfg.Graph, error) { return workloads.NPointDFT(4) },
		"fft8":       func() (*dfg.Graph, error) { return workloads.RadixTwoFFT(8) },
		"fir8x4":     func() (*dfg.Graph, error) { return workloads.FIRFilter(8, 4) },
		"matmul3":    func() (*dfg.Graph, error) { return workloads.MatMul(3) },
		"butterfly3": func() (*dfg.Graph, error) { return workloads.Butterfly(3) },
	} {
		g, err := gen()
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

// requireEquivalentCensus asserts the interned result matches the
// reference on every exported statistic.
func requireEquivalentCensus(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.BySize, got.BySize) {
		t.Fatalf("%s: BySize %v vs %v", label, got.BySize, ref.BySize)
	}
	if got.NodeCount != ref.NodeCount {
		t.Fatalf("%s: NodeCount %d vs %d", label, got.NodeCount, ref.NodeCount)
	}
	if len(got.Classes) != len(ref.Classes) {
		t.Fatalf("%s: %d classes vs %d", label, len(got.Classes), len(ref.Classes))
	}
	for key, rc := range ref.Classes {
		gc := got.Classes[key]
		if gc == nil {
			t.Fatalf("%s: class %q missing", label, key)
		}
		if gc.Count != rc.Count {
			t.Fatalf("%s: class %q count %d vs %d", label, key, gc.Count, rc.Count)
		}
		if gc.Pattern.Key() != key {
			t.Fatalf("%s: class %q carries pattern %q", label, key, gc.Pattern.Key())
		}
		if !reflect.DeepEqual(gc.NodeFreq, rc.NodeFreq) {
			t.Fatalf("%s: class %q NodeFreq differs", label, key)
		}
	}
	// The dense view must be consistent with the map: same classes, each
	// at its own id.
	seen := 0
	for id, cl := range got.ByID {
		if cl == nil {
			continue
		}
		seen++
		if cl.ID != id {
			t.Fatalf("%s: class %q has ID %d at index %d", label, cl.Pattern.Key(), cl.ID, id)
		}
		if got.Classes[cl.Pattern.Key()] != cl {
			t.Fatalf("%s: ByID[%d] not shared with Classes[%q]", label, id, cl.Pattern.Key())
		}
	}
	if seen != len(got.Classes) {
		t.Fatalf("%s: ByID holds %d classes, map %d", label, seen, len(got.Classes))
	}
}

// TestEnumerateEquivalentToReference runs old and new cores over the
// catalog workloads at the default operating point and an unlimited-span
// variant.
func TestEnumerateEquivalentToReference(t *testing.T) {
	for name, g := range equivalenceWorkloads(t) {
		for _, cfg := range []Config{
			{MaxSize: 5, MaxSpan: 1},
			{MaxSize: 4, MaxSpan: -1},
			{MaxSize: 2, MaxSpan: 0},
		} {
			ref := enumerateReference(t, g, cfg)
			got, err := Enumerate(g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireEquivalentCensus(t, name, ref, got)
		}
	}
}

// TestEnumerateKeepSetsEquivalent checks the retained member lists agree,
// order included (the sequential enumerators share a canonical order).
func TestEnumerateKeepSetsEquivalent(t *testing.T) {
	for _, name := range []string{"fig4", "3dft"} {
		g := equivalenceWorkloads(t)[name]
		cfg := Config{MaxSize: 3, MaxSpan: -1, KeepSets: true}
		ref := enumerateReference(t, g, cfg)
		got, err := Enumerate(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for key, rc := range ref.Classes {
			if !reflect.DeepEqual(got.Classes[key].Sets, rc.Sets) {
				t.Fatalf("%s: class %q sets differ", name, key)
			}
		}
	}
}

// TestEnumerateEquivalentOnRandomGraphs fuzzes the equivalence over random
// DAGs and every span regime: small dense graphs, then graphs sized around
// the 64-bit word edges of the candidate sets (63, 64, 65, 128 and 129
// nodes), where every walk is held to the reference. Sizes 3, 4 and 5 put
// the census's two-level count at the roots (split by stride across
// parallel workers), at depth 2 and at depth 3.
func TestEnumerateEquivalentOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 15; trial++ {
		g := randomSmallDFG(rng, 12)
		for _, span := range []int{-1, 0, 1, 3} {
			cfg := Config{MaxSize: 4, MaxSpan: span}
			ref := enumerateReference(t, g, cfg)
			got, err := Enumerate(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEquivalentCensus(t, "random", ref, got)
		}
	}
	for _, n := range []int{63, 64, 65, 128, 129} {
		g := randomDFG(rng, n, 0.2)
		for _, span := range []int{-1, 0, 1, 3} {
			for _, size := range []int{1, 2, 3, 4, 5} {
				if span < 0 {
					size = min(size, 3) // unlimited span: C(n, 5) is out of reach
				}
				cfg := Config{MaxSize: size, MaxSpan: span}
				requireWalksMatchReference(t, fmt.Sprintf("n=%d span=%d size=%d", n, span, size), g, cfg)
			}
		}
	}
}

// requireWalksMatchReference holds every walk over g to the reference
// enumerator: the census of Enumerate and of EnumerateParallel at 1 and 3
// workers, KeepSets set order, ForEach order, and CountTable rows.
func requireWalksMatchReference(t *testing.T, label string, g *dfg.Graph, cfg Config) {
	t.Helper()
	keep := cfg
	keep.KeepSets = true
	ref := enumerateReference(t, g, keep)
	censuses := map[string]func() (*Result, error){
		"Enumerate":            func() (*Result, error) { return Enumerate(g, cfg) },
		"EnumerateParallel(1)": func() (*Result, error) { return EnumerateParallel(g, cfg, 1) },
		"EnumerateParallel(3)": func() (*Result, error) { return EnumerateParallel(g, cfg, 3) },
	}
	for name, census := range censuses {
		got, err := census()
		if err != nil {
			t.Fatalf("%s %s: %v", label, name, err)
		}
		requireEquivalentCensus(t, label+" "+name, ref, got)
	}
	sets, err := Enumerate(g, keep)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalentCensus(t, label+" KeepSets", ref, sets)
	for key, rc := range ref.Classes {
		if !reflect.DeepEqual(sets.Classes[key].Sets, rc.Sets) {
			t.Fatalf("%s: class %q sets differ", label, key)
		}
	}

	var order [][]int
	if err := ForEach(g, cfg, func(nodes []int) bool {
		order = append(order, append([]int(nil), nodes...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	lv := g.Levels()
	var table [][]int
	for range max(cfg.MaxSpan+1, 0) {
		table = append(table, make([]int, cfg.MaxSize+1))
	}
	i := 0
	referenceForEach(g, cfg, func(nodes []int) bool {
		if i >= len(order) || !reflect.DeepEqual(order[i], nodes) {
			t.Fatalf("%s: ForEach antichain #%d differs from reference %v", label, i, nodes)
		}
		i++
		for s := lv.Span(nodes); s < len(table); s++ {
			table[s][len(nodes)]++
		}
		return true
	})
	if i != len(order) {
		t.Fatalf("%s: ForEach emitted %d antichains, reference %d", label, len(order), i)
	}
	if cfg.MaxSpan >= 0 {
		got, err := CountTable(g, cfg.MaxSize, cfg.MaxSpan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, table) {
			t.Fatalf("%s: CountTable %v, reference %v", label, got, table)
		}
	}
}

// fuzzCensusBudget caps the antichains a fuzz input may bring: the
// reference clones a bitset per extension and keys a map per antichain,
// about 1 µs each.
const fuzzCensusBudget = 50_000

// decodeCensusProblem turns fuzz bytes into a census problem: byte 0 picks
// the node count (1–96), byte 1 the color count (1–4), byte 2 MaxSize
// (1–5) and byte 3 MaxSpan (−1…3). The next n bytes color the nodes (color
// 0 once they run out) and every later byte pair (u, v) adds the forward
// edge min→max, so the graph is always a DAG.
func decodeCensusProblem(data []byte) (*dfg.Graph, Config, bool) {
	if len(data) < 4 {
		return nil, Config{}, false
	}
	n, colors := 1+int(data[0])%96, 1+int(data[1])%4
	cfg := Config{MaxSize: 1 + int(data[2])%5, MaxSpan: int(data[3])%5 - 1}
	data = data[4:]
	g := dfg.NewGraph("fuzz")
	for i := 0; i < n; i++ {
		c := 0
		if i < len(data) {
			c = int(data[i]) % colors
		}
		g.MustAddNode(dfg.Node{Name: fmt.Sprintf("n%d", i), Color: dfg.Color(string(rune('a' + c)))})
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 2; data = data[2:] {
		u, v := int(data[0])%n, int(data[1])%n
		if u != v {
			g.MustAddDep(min(u, v), max(u, v))
		}
	}
	return g, cfg, true
}

// chainsFuzzSeed encodes a census of n nodes in eight 3-color chains with a
// few cross edges, at MaxSize 5 and span ≤ spanByte−1: node i has color
// i mod 3 and precedes i+8, and every fifth node also precedes i+9.
func chainsFuzzSeed(n int, spanByte byte) []byte {
	data := []byte{byte(n - 1), 2, 4, spanByte}
	for i := 0; i < n; i++ {
		data = append(data, byte(i%3))
	}
	for i := 0; i+8 < n; i++ {
		data = append(data, byte(i), byte(i+8))
		if i%5 == 0 && i+9 < n {
			data = append(data, byte(i), byte(i+9))
		}
	}
	return data
}

// FuzzEnumerateMatchesReference holds the census of arbitrary DAGs of up
// to 96 nodes and 4 colors, at every size and span regime, to the
// reference enumerator.
func FuzzEnumerateMatchesReference(f *testing.F) {
	// 64 nodes, span ≤ 1: the last node is bit 63, the end of the candidate
	// sets' only word.
	f.Add(chainsFuzzSeed(64, 2))
	f.Add([]byte{64, 1, 1, 1})                     // 65 isolated nodes, pairs, span 0
	f.Add([]byte{4, 2, 2, 1, 0, 1, 2, 0, 1, 0, 2}) // five nodes, one edge
	// 96 nodes at the tightest limit, span 0: candidate sets of two words.
	f.Add(chainsFuzzSeed(96, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cfg, ok := decodeCensusProblem(data)
		if !ok {
			return
		}
		count := 0
		if err := ForEach(g, cfg, func([]int) bool {
			count++
			return count <= fuzzCensusBudget
		}); err != nil {
			t.Fatal(err)
		}
		if count > fuzzCensusBudget {
			t.Skip("census too large for the reference")
		}
		got, err := Enumerate(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := enumerateReference(t, g, cfg)
		requireEquivalentCensus(t, "Enumerate", ref, got)
		par, err := EnumerateParallel(g, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		requireEquivalentCensus(t, "EnumerateParallel(3)", ref, par)
	})
}

// TestCountTableSinglePassMatchesPerSpan pins the one-pass CountTable to
// the per-span-row re-enumeration it replaced.
func TestCountTableSinglePassMatchesPerSpan(t *testing.T) {
	for _, name := range []string{"3dft", "fig4", "butterfly3"} {
		g := equivalenceWorkloads(t)[name]
		const maxSize, maxSpan = 5, 4
		got, err := CountTable(g, maxSize, maxSpan)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s <= maxSpan; s++ {
			res, err := Enumerate(g, Config{MaxSize: maxSize, MaxSpan: s})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, maxSize+1)
			copy(want, res.BySize)
			if !reflect.DeepEqual(got[s], want) {
				t.Fatalf("%s: span ≤ %d row %v, per-span enumeration %v", name, s, got[s], want)
			}
		}
	}
}
