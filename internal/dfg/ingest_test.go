package dfg_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unicode/utf8"
	"unsafe"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
)

// coldCorpusSpecs are the DSP kernels of the repository benchmark's cold
// corpus plus its three random-graph shapes (bench/inputs.go), at a few
// seeds each.
func coldCorpusSpecs() []string {
	specs := []string{"3dft", "ndft:4", "ndft:5", "fft:8", "fir:8,4", "fir:12,2", "fir:16,2", "matmul:3",
		"butterfly:3", "butterfly:4", "wide:stages=4,lanes=8", "chain:depth=48,width=2"}
	for seed := 1; seed <= 3; seed++ {
		for _, shape := range []string{"n=64", "n=96,colors=3", "n=128,colors=3,fanin=3"} {
			specs = append(specs, fmt.Sprintf("random:seed=%d,%s", seed, shape))
		}
	}
	return specs
}

func generate(t testing.TB, spec string) *dfg.Graph {
	t.Helper()
	g, err := cliutil.Generate(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return g
}

// randomLabelled builds a seeded random DAG whose successor lists are out
// of id order (edges are inserted shuffled), with semantics on some nodes
// and names, colors and inputs that need quoting.
func randomLabelled(rng *rand.Rand) *dfg.Graph {
	n := 1 + rng.Intn(48)
	colors := []dfg.Color{"a", "b", "c", `d"`, "é"}
	names := []string{"n%d", `q"%d`, `b\%d`, "ü%d", "t\t%d"}
	var edges [][2]int
	preds := make([][]int, n)
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if rng.Float64() < 3/float64(n) {
				edges = append(edges, [2]int{from, to})
				preds[to] = append(preds[to], from)
			}
		}
	}
	g := dfg.NewGraph(fmt.Sprintf("random-%d", n))
	for id := 0; id < n; id++ {
		nd := dfg.Node{
			Name:  fmt.Sprintf(names[rng.Intn(len(names))], id),
			Color: colors[rng.Intn(len(colors))],
		}
		if len(preds[id]) > 0 && rng.Intn(2) == 0 {
			nd.Op = dfg.OpAdd
			for _, p := range preds[id] {
				nd.Args = append(nd.Args, dfg.NodeRef(p))
			}
			nd.Args = append(nd.Args, dfg.ConstVal(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20))),
				dfg.InputRef(fmt.Sprintf("in\"%d", rng.Intn(5))))
			if rng.Intn(3) == 0 {
				nd.Output = fmt.Sprintf("out %d", id)
			}
		}
		g.MustAddNode(nd)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		g.MustAddDep(e[0], e[1])
		if rng.Intn(8) == 0 {
			g.MustAddDep(e[0], e[1]) // duplicates are ignored
		}
	}
	return g
}

// specialGraphs are Builder-made graphs covering every operand kind and op,
// constants whose %g form is unusual (−0, subnormals, 1e21, non-finite)
// and names that need escaping: quotes, backslash, control characters,
// non-ASCII and invalid UTF-8.
func specialGraphs(t testing.TB) []*dfg.Graph {
	t.Helper()
	escaped := dfg.NewBuilder("escapes").
		Node(`quote"d`, "a").
		Node(`back\slash`, "b").
		Node("ctl\x00\x01\t\n\r\x7f", "c").
		Node("ünïcødé ✓ 日本", "ç").
		Node("bad\xff\xfeutf8", "\xc3").
		OpNode("sum", "a", dfg.OpAdd, dfg.N(`quote"d`), dfg.N(`back\slash`), dfg.In("x\"\\y\u00e9\x01"),
			dfg.K(math.Copysign(0, -1)), dfg.K(0), dfg.K(5e-324), dfg.K(2.2250738585072014e-308),
			dfg.K(1e21), dfg.K(1e20), dfg.K(-1.5), dfg.K(0.1), dfg.K(math.MaxFloat64), dfg.K(123456789)).
		OpNode("neg", "b", dfg.OpNeg, dfg.N("sum")).
		OpNode("sub", "b", dfg.OpSub, dfg.N("neg"), dfg.In("in\xff"), dfg.K(-1e-7)).
		OpNode("mul", "c", dfg.OpMul, dfg.N("sub"), dfg.N("bad\xff\xfeutf8")).
		OpNode("pass", "\u2028", dfg.OpPass, dfg.In("ïn")).
		Dep("ünïcødé ✓ 日本", "mul").
		Dep("ctl\x00\x01\t\n\r\x7f", "pass").
		Output("mul", "out\"put\n").
		Output("pass", "\x00").
		MustBuild()
	nonFinite := dfg.NewBuilder("non-finite").
		OpNode("k", "a", dfg.OpAdd, dfg.K(math.Inf(1)), dfg.K(math.Inf(-1)), dfg.K(math.NaN())).
		MustBuild()
	return []*dfg.Graph{escaped, nonFinite, dfg.NewGraph("empty")}
}

// ingestCorpus is every graph the reference tests cover: the catalog
// examples, the hot set, the cold corpus, 200 seeded random graphs from
// the generator, 100 random labelled graphs and the Builder specials.
func ingestCorpus(t testing.TB) []*dfg.Graph {
	var gs []*dfg.Graph
	for _, w := range cliutil.Catalog() {
		gs = append(gs, generate(t, w.Example))
	}
	specs := append(cliutil.HotSetSpecs(1), coldCorpusSpecs()...)
	for seed := 1; seed <= 200; seed++ {
		specs = append(specs, fmt.Sprintf("random:seed=%d,n=%d,colors=%d", seed, 2+seed%70, 1+seed%4))
	}
	for _, spec := range specs {
		gs = append(gs, generate(t, spec))
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 100; i++ {
		gs = append(gs, randomLabelled(rng))
	}
	return append(gs, specialGraphs(t)...)
}

// TestFingerprintMatchesReference: the fmt-free fingerprint hashes exactly
// the bytes the reference fmt implementation does, on every graph shape
// the serving stack sees and on the quoting and formatting corner cases.
func TestFingerprintMatchesReference(t *testing.T) {
	for i, g := range ingestCorpus(t) {
		if got, want := g.Fingerprint(), dfg.ReferenceFingerprint(g); got != want {
			t.Errorf("graph %d (%s, %d nodes): fingerprint %s, reference %s", i, g.Name, g.N(), got, want)
		}
	}
}

// wireSafe reports whether both codecs carry g losslessly: they reject
// invalid UTF-8 and non-finite constants.
func wireSafe(g *dfg.Graph) bool {
	for id := 0; id < g.N(); id++ {
		n := g.Node(id)
		for _, s := range []string{n.Name, string(n.Color), n.Output} {
			if !utf8.ValidString(s) {
				return false
			}
		}
		for _, a := range n.Args {
			if !utf8.ValidString(a.Input) || math.IsNaN(a.Const) || math.IsInf(a.Const, 0) {
				return false
			}
		}
	}
	return true
}

// TestDecodersMatchReference: both one-pass decoders build the graph the
// per-element reference decoders build, and AppendBinary still lists the
// edges as Digraph.Edges does.
func TestDecodersMatchReference(t *testing.T) {
	for i, g := range ingestCorpus(t) {
		if !wireSafe(g) {
			continue
		}
		bin := g.AppendBinary(nil)
		var edges []byte
		edges = binary.AppendUvarint(edges, uint64(g.M()))
		for _, e := range g.Digraph().Edges() {
			edges = binary.AppendUvarint(binary.AppendUvarint(edges, uint64(e[0])), uint64(e[1]))
		}
		if !bytes.HasSuffix(bin, edges) {
			t.Errorf("graph %d (%s): AppendBinary's edge section differs from Edges()", i, g.Name)
		}
		var gotBin dfg.Graph
		err := gotBin.UnmarshalBinary(bin)
		ref, refErr := dfg.ReferenceUnmarshalBinary(bin)
		dfg.RequireMatchesReference(t, &gotBin, err, ref, refErr)
		if err == nil && !bytes.Equal(gotBin.AppendBinary(nil), bin) {
			t.Errorf("graph %d (%s): binary re-encode differs", i, g.Name)
		}

		js, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var gotJSON dfg.Graph
		err = gotJSON.UnmarshalJSON(js)
		ref, refErr = dfg.ReferenceUnmarshalJSON(js)
		dfg.RequireMatchesReference(t, &gotJSON, err, ref, refErr)
		if err == nil && gotJSON.Fingerprint() != g.Fingerprint() {
			t.Errorf("graph %d (%s): JSON round trip changed the fingerprint", i, g.Name)
		}
	}
}

// Allocation budgets for graph ingest. Measured (go1.24, linux/amd64):
// Fingerprint 1 alloc of 64 bytes (the hex string) whatever the graph's
// size, since it hashes through a pooled fixed-size buffer;
// UnmarshalBinary about 15 allocs plus one per node with operands (its
// operand slice), and 41–94 bytes a node beyond the graph it returns
// (graphBytes); a decoder that also builds a name map and a topological
// order takes 109–165. The budgets leave room for the occasional sort
// scratch and for an empty pool: a Fingerprint that finds none
// allocates its 2 KiB buffer and hash state, as happens now and then
// under the race detector, whose sync.Pool drops some of what is put
// back.
const (
	fingerprintAllocBudget = 3
	fingerprintByteBudget  = 4096
	unmarshalAllocSlack    = 32
	unmarshalBytesPerNode  = 64
	unmarshalByteSlack     = 512
	allocBudgetSamples     = 20
)

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes f
// allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// graphBytes is the memory a graph decoded from frame holds: one copy of
// the frame (its strings are substrings of it), its nodes and their
// operands, and its adjacency lists.
func graphBytes(g *dfg.Graph, frame []byte) int {
	b := len(frame) + g.N()*int(unsafe.Sizeof(dfg.Node{})) +
		2*g.N()*int(unsafe.Sizeof([]int(nil))) + 2*g.M()*int(unsafe.Sizeof(0))
	for id := 0; id < g.N(); id++ {
		b += len(g.Node(id).Args) * int(unsafe.Sizeof(dfg.Operand{}))
	}
	return b
}

func TestIngestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets measured in full runs")
	}
	for _, spec := range []string{"fig4", "3dft", "fir:12,2", "random:seed=9,n=24", "random:seed=9,n=63",
		"chain:depth=48,width=2", "matmul:3", "fft:16", "random:seed=3,n=128,colors=3,fanin=3", "random:seed=5,n=2000"} {
		g := generate(t, spec)
		out := g.Node(0).Output
		fingerprint := func() {
			g.SetOutput(0, out) // drops the cached hash, content unchanged
			g.Fingerprint()
		}
		fp := testing.AllocsPerRun(allocBudgetSamples, fingerprint)
		if fp > fingerprintAllocBudget {
			t.Errorf("%s: Fingerprint %.0f allocs, budget %d", spec, fp, fingerprintAllocBudget)
		}
		fpBytes := bytesPerRun(allocBudgetSamples, fingerprint)
		if fpBytes > fingerprintByteBudget {
			t.Errorf("%s (%d nodes): Fingerprint %.0f bytes, budget %d whatever the graph's size", spec, g.N(), fpBytes, fingerprintByteBudget)
		}
		bin := g.AppendBinary(nil)
		var d dfg.Graph
		unmarshal := func() {
			if err := d.UnmarshalBinary(bin); err != nil {
				t.Fatal(err)
			}
		}
		dec := testing.AllocsPerRun(allocBudgetSamples, unmarshal)
		if budget := float64(g.N() + unmarshalAllocSlack); dec > budget {
			t.Errorf("%s (%d nodes): UnmarshalBinary %.0f allocs, budget %.0f", spec, g.N(), dec, budget)
		}
		held := graphBytes(g, bin)
		decBytes := bytesPerRun(allocBudgetSamples, unmarshal)
		if budget := held + unmarshalBytesPerNode*g.N() + unmarshalByteSlack; decBytes > float64(budget) {
			t.Errorf("%s (%d nodes): UnmarshalBinary %.0f bytes, budget %d (%d for the graph it returns)", spec, g.N(), decBytes, budget, held)
		}
		if dfg.HasNameMap(&d) {
			t.Errorf("%s: UnmarshalBinary built the name map", spec)
		}
		last := g.N() - 1
		if id, ok := d.ID(g.NameOf(last)); !ok || id != last || !dfg.HasNameMap(&d) {
			t.Errorf("%s: ID(%q) = %d, %v on a decoded graph, want %d from the map it builds", spec, g.NameOf(last), id, ok, last)
		}
		t.Logf("%s (%d nodes): Fingerprint %.0f allocs, %.0f bytes; UnmarshalBinary %.0f allocs, %.0f bytes (%d held)",
			spec, g.N(), fp, fpBytes, dec, decBytes, held)
	}
}

// hotSet is the seed-1 hot set of the warm workloads, with each graph's
// wire forms.
type hotGraph struct {
	g         *dfg.Graph
	bin, json []byte
}

func hotSet(b *testing.B) []hotGraph {
	b.Helper()
	var hs []hotGraph
	for _, spec := range cliutil.HotSetSpecs(1) {
		g := generate(b, spec)
		js, err := json.Marshal(g)
		if err != nil {
			b.Fatal(err)
		}
		hs = append(hs, hotGraph{g: g, bin: g.AppendBinary(nil), json: js})
	}
	return hs
}

// The ingest benchmarks report the mean cost per graph over the hot set:
// iteration i handles graph i mod 32.

func BenchmarkFingerprint(b *testing.B) {
	hs := hotSet(b)
	outs := make([]string, len(hs))
	for i, h := range hs {
		outs[i] = h.g.Node(0).Output
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(hs)
		hs[k].g.SetOutput(0, outs[k]) // drops the cached hash, content unchanged
		hs[k].g.Fingerprint()
	}
}

func BenchmarkUnmarshalBinary(b *testing.B) {
	hs := hotSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g dfg.Graph
		if err := g.UnmarshalBinary(hs[i%len(hs)].bin); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalJSON(b *testing.B) {
	hs := hotSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g dfg.Graph
		if err := json.Unmarshal(hs[i%len(hs)].json, &g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBinary(b *testing.B) {
	hs := hotSet(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = hs[i%len(hs)].g.AppendBinary(buf[:0])
	}
}
