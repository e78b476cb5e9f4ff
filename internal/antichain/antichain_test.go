package antichain

import (
	"math/rand"
	"testing"

	"mpsched/internal/dfg"
	"mpsched/internal/workloads"
)

func TestFig4Table4(t *testing.T) {
	g := workloads.Fig4Small()
	res, err := Enumerate(g, Config{MaxSize: 2, MaxSpan: -1, KeepSets: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: p̄1={a}: {a1},{a2},{a3}; p̄2={b}: {b4},{b5};
	//          p̄3={aa}: {a1,a3},{a2,a3}; p̄4={bb}: {b4,b5}.
	wantCounts := map[string]int{"a": 3, "b": 2, "a,a": 2, "b,b": 1}
	if len(res.Classes) != len(wantCounts) {
		t.Fatalf("classes = %v, want 4 classes", keys(res.Classes))
	}
	for key, want := range wantCounts {
		cl := res.Classes[key]
		if cl == nil {
			t.Fatalf("class %q missing", key)
		}
		if cl.Count != want {
			t.Errorf("class %q count = %d, want %d", key, cl.Count, want)
		}
	}
	// No {a,b} class exists — the motivation for the color condition.
	if res.Classes["a,b"] != nil {
		t.Error("phantom {a,b} antichain found")
	}
	// The {aa} sets are exactly {a1,a3} and {a2,a3}.
	aa := res.Classes["a,a"]
	a1, a2, a3 := g.MustID("a1"), g.MustID("a2"), g.MustID("a3")
	wantSets := map[[2]int]bool{{a1, a3}: true, {a2, a3}: true}
	for _, s := range aa.Sets {
		if len(s) != 2 || !wantSets[[2]int{s[0], s[1]}] {
			t.Errorf("unexpected {aa} antichain %v", s)
		}
	}
}

func TestFig4Table6NodeFrequencies(t *testing.T) {
	g := workloads.Fig4Small()
	res, err := Enumerate(g, Config{MaxSize: 2, MaxSpan: -1})
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) int { return g.MustID(name) }
	// Table 6 verbatim.
	want := map[string]map[string]int{
		"a":   {"a1": 1, "a2": 1, "a3": 1, "b4": 0, "b5": 0},
		"b":   {"a1": 0, "a2": 0, "a3": 0, "b4": 1, "b5": 1},
		"a,a": {"a1": 1, "a2": 1, "a3": 2, "b4": 0, "b5": 0},
		"b,b": {"a1": 0, "a2": 0, "a3": 0, "b4": 1, "b5": 1},
	}
	for key, freqs := range want {
		cl := res.Classes[key]
		if cl == nil {
			t.Fatalf("class %q missing", key)
		}
		for name, h := range freqs {
			if got := cl.NodeFreq[id(name)]; got != h {
				t.Errorf("h(%s, %s) = %d, want %d", key, name, got, h)
			}
		}
	}
}

// The headline reproduction: the paper's Table 5 — number of 3DFT
// antichains of each size under each span limit — must come out exactly.
func TestThreeDFTTable5(t *testing.T) {
	g := workloads.ThreeDFT()
	want := map[int][]int{ // spanLimit → counts for sizes 1..5
		4: {24, 224, 1034, 2500, 3104},
		3: {24, 222, 1010, 2404, 2954},
		2: {24, 208, 870, 1926, 2282},
		1: {24, 178, 632, 1232, 1364},
		0: {24, 124, 304, 425, 356},
	}
	table, err := CountTable(g, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for span, wantRow := range want {
		for size := 1; size <= 5; size++ {
			if got := table[span][size]; got != wantRow[size-1] {
				t.Errorf("span≤%d size=%d: got %d, want %d", span, size, got, wantRow[size-1])
			}
		}
	}
}

func TestForEachCanonicalOrderAndUniqueness(t *testing.T) {
	g := workloads.ThreeDFT()
	seen := map[string]bool{}
	prevKey := ""
	err := ForEach(g, Config{MaxSize: 3, MaxSpan: -1}, func(nodes []int) bool {
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1] >= nodes[i] {
				t.Fatalf("set %v not ascending", nodes)
			}
		}
		key := fmtNodes(nodes)
		if seen[key] {
			t.Fatalf("duplicate antichain %v", nodes)
		}
		seen[key] = true
		_ = prevKey
		prevKey = key
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	g := workloads.ThreeDFT()
	count := 0
	err := ForEach(g, Config{MaxSize: 5, MaxSpan: -1}, func(nodes []int) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("early stop visited %d, want 10", count)
	}
}

func TestEnumerateRejectsBadConfig(t *testing.T) {
	g := workloads.Fig4Small()
	if _, err := Enumerate(g, Config{MaxSize: 0, MaxSpan: -1}); err == nil {
		t.Error("MaxSize 0 accepted")
	}
}

// A MaxSize past the pattern table's exact keys is an error on every walk,
// returned before any state is sized by it.
func TestEnumerateRejectsMaxSizeOverLimit(t *testing.T) {
	g := workloads.ThreeDFT()
	cfg := Config{MaxSize: MaxSizeLimit + 1, MaxSpan: 1}
	if _, err := Enumerate(g, cfg); err == nil {
		t.Error("Enumerate accepted MaxSize 65536")
	}
	if _, err := EnumerateParallel(g, cfg, 2); err == nil {
		t.Error("EnumerateParallel accepted MaxSize 65536")
	}
	if err := ForEach(g, cfg, func([]int) bool { return true }); err == nil {
		t.Error("ForEach accepted MaxSize 65536")
	}
	if _, err := CountTable(g, cfg.MaxSize, 1); err == nil {
		t.Error("CountTable accepted MaxSize 65536")
	}
}

// No antichain has more members than the graph has nodes: the largest
// MaxSize counts exactly what MaxSize = n counts, and BySize keeps its
// MaxSize+1 entries.
func TestEnumerateLargestMaxSizeMatchesNodeCount(t *testing.T) {
	g := workloads.ThreeDFT()
	want, err := Enumerate(g, Config{MaxSize: g.N(), MaxSpan: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, census := range map[string]func(Config) (*Result, error){
		"Enumerate":            func(cfg Config) (*Result, error) { return Enumerate(g, cfg) },
		"EnumerateParallel(3)": func(cfg Config) (*Result, error) { return EnumerateParallel(g, cfg, 3) },
	} {
		got, err := census(Config{MaxSize: MaxSizeLimit, MaxSpan: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.BySize) != MaxSizeLimit+1 {
			t.Fatalf("%s: BySize has %d entries, want %d", name, len(got.BySize), MaxSizeLimit+1)
		}
		for k, c := range got.BySize[g.N()+1:] {
			if c != 0 {
				t.Fatalf("%s: %d antichains of size %d in a %d-node graph", name, c, g.N()+1+k, g.N())
			}
		}
		got.BySize = got.BySize[:g.N()+1]
		requireEquivalentCensus(t, name, want, got)
	}
}

// Cross-check the DFS enumeration against brute force over all subsets on
// random graphs small enough to enumerate exhaustively.
func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := randomSmallDFG(rng, 10)
		for _, span := range []int{-1, 0, 1, 2} {
			cfg := Config{MaxSize: 4, MaxSpan: span}
			res, err := Enumerate(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceCount(g, cfg)
			for size := 1; size <= cfg.MaxSize; size++ {
				if res.BySize[size] != want[size] {
					t.Fatalf("trial %d span %d size %d: DFS %d, brute force %d",
						trial, span, size, res.BySize[size], want[size])
				}
			}
		}
	}
}

// Every enumerated set is a genuine antichain within its span bound.
func TestEnumeratedSetsAreAntichains(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g := randomSmallDFG(rng, 14)
	lv := g.Levels()
	err := ForEach(g, Config{MaxSize: 4, MaxSpan: 1}, func(nodes []int) bool {
		if !IsAntichain(g, nodes) {
			t.Fatalf("%v is not an antichain", nodes)
		}
		if lv.Span(nodes) > 1 {
			t.Fatalf("%v exceeds span limit: %d", nodes, lv.Span(nodes))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Theorem 1, checked by exhaustive scheduling on small graphs: forcing an
// antichain A into one cycle yields a schedule no shorter than
// ASAPmax + Span(A) + 1.
func TestTheorem1SpanBound(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 10; trial++ {
		g := randomSmallDFG(rng, 9)
		lv := g.Levels()
		err := ForEach(g, Config{MaxSize: 3, MaxSpan: -1}, func(nodes []int) bool {
			bound := SpanLowerBound(g, nodes)
			best := shortestScheduleWithGroup(g, nodes)
			if best < bound {
				t.Fatalf("trial %d: antichain %v scheduled in %d cycles, Theorem 1 bound %d",
					trial, nodes, best, bound)
			}
			_ = lv
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// shortestScheduleWithGroup computes, by longest-path arguments, the
// minimum schedule length when the given antichain must share one cycle
// and resources are otherwise unlimited: every node still needs its
// ancestor chain before and descendant chain after, and the group cycle
// must satisfy all members simultaneously.
func shortestScheduleWithGroup(g *dfg.Graph, group []int) int {
	lv := g.Levels()
	// The group's cycle t must be ≥ max ASAP over the group. After t, the
	// longest remaining chain is max over members of (height − 1)… but
	// other nodes may impose ASAPmax+1 overall.
	maxASAP := 0
	maxHeight := 0
	for _, n := range group {
		if lv.ASAP[n] > maxASAP {
			maxASAP = lv.ASAP[n]
		}
		if lv.Height[n] > maxHeight {
			maxHeight = lv.Height[n]
		}
	}
	total := maxASAP + maxHeight // cycles 0..maxASAP-1, the group, its tail
	if total < lv.ASAPMax+1 {
		total = lv.ASAPMax + 1
	}
	return total
}

func keys(m map[string]*Class) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func fmtNodes(nodes []int) string {
	s := ""
	for _, n := range nodes {
		s += string(rune('A'+n%26)) + string(rune('0'+n/26))
	}
	return s
}

func bruteForceCount(g *dfg.Graph, cfg Config) []int {
	n := g.N()
	lv := g.Levels()
	counts := make([]int, cfg.MaxSize+1)
	for mask := 1; mask < (1 << n); mask++ {
		var nodes []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				nodes = append(nodes, i)
			}
		}
		if len(nodes) > cfg.MaxSize {
			continue
		}
		if !IsAntichain(g, nodes) {
			continue
		}
		if cfg.MaxSpan >= 0 && lv.Span(nodes) > cfg.MaxSpan {
			continue
		}
		counts[len(nodes)]++
	}
	return counts
}

func randomSmallDFG(rng *rand.Rand, n int) *dfg.Graph { return randomDFG(rng, n, 0.25) }

// randomDFG draws a 3-color DAG on n nodes with each forward edge i→j
// present with probability density.
func randomDFG(rng *rand.Rand, n int, density float64) *dfg.Graph {
	g := dfg.NewGraph("small")
	colors := []dfg.Color{"a", "b", "c"}
	for i := 0; i < n; i++ {
		g.MustAddNode(dfg.Node{
			Name:  "n" + string(rune('0'+i/10)) + string(rune('0'+i%10)),
			Color: colors[rng.Intn(len(colors))],
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				g.MustAddDep(i, j)
			}
		}
	}
	return g
}
