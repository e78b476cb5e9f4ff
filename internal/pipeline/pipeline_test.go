package pipeline

import (
	"context"
	"strings"
	"testing"

	"mpsched/internal/alloc"
	"mpsched/internal/antichain"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/sched"
	"mpsched/internal/workloads"
)

// fleet builds a mixed batch of specs over the workload generators.
func fleet(t testing.TB) []Spec {
	t.Helper()
	var specs []Spec
	add := func(name string, g *dfg.Graph, err error) {
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		specs = append(specs, Spec{Name: name, Graph: g, Select: patsel.Config{Pdef: 4}})
	}
	add("3dft", workloads.ThreeDFT(), nil)
	g, err := workloads.NPointDFT(4)
	add("4dft", g, err)
	g, err = workloads.FIRFilter(6, 3)
	add("fir6x3", g, err)
	g, err = workloads.MatMul(3)
	add("matmul3", g, err)
	g, err = workloads.Butterfly(3)
	add("butterfly3", g, err)
	return specs
}

func TestRunMixedBatch(t *testing.T) {
	specs := fleet(t)
	reps, errs := NewCompiler(Options{}).CompileAll(context.Background(), specs, 4)
	if len(reps) != len(specs) || len(errs) != len(specs) {
		t.Fatalf("got %d reports and %d errors for %d specs", len(reps), len(errs), len(specs))
	}
	for i, r := range reps {
		name := specs[i].Name
		if errs[i] != nil {
			t.Errorf("spec %s failed: %v", name, errs[i])
			continue
		}
		if r.Name != name {
			t.Errorf("report %d is for spec %q, want %q", i, r.Name, name)
		}
		if r.Schedule == nil || r.Selection == nil {
			t.Errorf("spec %s missing outputs", name)
			continue
		}
		if err := r.Schedule.Verify(); err != nil {
			t.Errorf("spec %s schedule invalid: %v", name, err)
		}
		if r.CacheHit {
			t.Errorf("spec %s claims a cache hit with no cache configured", name)
		}
	}
}

func TestPooledMatchesSequential(t *testing.T) {
	specs := fleet(t)
	c := NewCompiler(Options{})
	seq, seqErrs := c.CompileAll(context.Background(), specs, 1)
	par, parErrs := c.CompileAll(context.Background(), specs, 8)
	for i := range specs {
		if (seqErrs[i] == nil) != (parErrs[i] == nil) {
			t.Fatalf("spec %s: error mismatch %v vs %v", specs[i].Name, seqErrs[i], parErrs[i])
		}
		if seqErrs[i] != nil {
			continue
		}
		if s, p := seq[i].Schedule.Length(), par[i].Schedule.Length(); s != p {
			t.Errorf("spec %s: %d cycles sequential vs %d pooled", specs[i].Name, s, p)
		}
		if s, p := seq[i].Selection.Patterns.String(), par[i].Selection.Patterns.String(); s != p {
			t.Errorf("spec %s: patterns %s vs %s", specs[i].Name, s, p)
		}
	}
}

// TestParallelEnumBackendMatchesSequential compiles graphs on both sides
// of DefaultParallelEnumNodes and checks each against selection and
// scheduling over the sequential enumerator.
func TestParallelEnumBackendMatchesSequential(t *testing.T) {
	specs := fleet(t)
	for _, gen := range []func() (*dfg.Graph, error){
		func() (*dfg.Graph, error) { return workloads.FIRFilter(8, 4) },
		func() (*dfg.Graph, error) { return workloads.Butterfly(4) },
	} {
		g, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, Spec{Name: g.Name, Graph: g, Select: patsel.Config{Pdef: 4}})
	}
	parallel := 0
	c := NewCompiler(Options{})
	for _, spec := range specs {
		if spec.Graph.N() >= DefaultParallelEnumNodes {
			parallel++
		}
		rep, err := c.Compile(context.Background(), spec)
		if err != nil {
			t.Fatalf("spec %s: %v", spec.Name, err)
		}
		cfg := spec.Select.WithDefaults()
		census, err := antichain.Enumerate(spec.Graph, antichain.Config{MaxSize: cfg.C, MaxSpan: cfg.MaxSpan})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := patsel.SelectFrom(spec.Graph, census, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.MultiPattern(spec.Graph, sel.Patterns, spec.Sched)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Schedule.Length(), s.Length(); got != want {
			t.Errorf("spec %s: %d cycles compiled vs %d sequential enum", spec.Name, got, want)
		}
		if got, want := rep.Selection.Patterns.String(), sel.Patterns.String(); got != want {
			t.Errorf("spec %s: patterns %s vs %s", spec.Name, got, want)
		}
	}
	if parallel == 0 {
		t.Fatalf("no spec reaches %d nodes; the parallel backend never ran", DefaultParallelEnumNodes)
	}
}

func TestErrorIsolation(t *testing.T) {
	cyclic := dfg.NewGraph("cyclic")
	a := cyclic.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := cyclic.MustAddNode(dfg.Node{Name: "b", Color: "b"})
	cyclic.MustAddDep(a, b)
	cyclic.MustAddDep(b, a)

	specs := []Spec{
		{Name: "ok1", Graph: workloads.ThreeDFT(), Select: patsel.Config{Pdef: 4}},
		{Name: "cyclic", Graph: cyclic, Select: patsel.Config{Pdef: 2}},
		{Name: "nilgraph"},
		{Name: "badcfg", Graph: workloads.ThreeDFT(), Select: patsel.Config{Pdef: -1}},
		{Name: "ok2", Graph: workloads.Fig4Small(), Select: patsel.Config{Pdef: 2, C: 2, MaxSpan: patsel.SpanUnlimited}},
	}
	reps, errs := NewCompiler(Options{}).CompileAll(context.Background(), specs, 3)
	for i, spec := range specs {
		failing := !strings.HasPrefix(spec.Name, "ok")
		switch {
		case failing && errs[i] == nil:
			t.Errorf("spec %s: want error, got success", spec.Name)
		case failing && !strings.Contains(errs[i].Error(), spec.Name):
			t.Errorf("spec %s: error %q does not name the spec", spec.Name, errs[i])
		case failing && reps[i] != nil:
			t.Errorf("spec %s: failed spec has a report", spec.Name)
		case !failing && errs[i] != nil:
			t.Errorf("spec %s: unexpected error %v (failures must not poison the batch)", spec.Name, errs[i])
		}
	}
}

func TestCacheHitSkipsCompilation(t *testing.T) {
	cache := NewShardedCache(0, 1)
	c := NewCompiler(Options{Cache: cache})

	specs := fleet(t)
	cold, errs := c.CompileAll(context.Background(), specs, 2)
	for i, r := range cold {
		if errs[i] != nil {
			t.Fatalf("cold spec %s: %v", specs[i].Name, errs[i])
		}
		if r.CacheHit {
			t.Fatalf("cold spec %s: unexpected cache hit", specs[i].Name)
		}
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != int64(len(specs)) || st.Entries != len(specs) {
		t.Fatalf("cold stats: %+v", st)
	}

	warm, errs := c.CompileAll(context.Background(), specs, 2)
	for i, r := range warm {
		if errs[i] != nil {
			t.Fatalf("warm spec %s: %v", specs[i].Name, errs[i])
		}
		if !r.CacheHit {
			t.Errorf("warm spec %s: expected cache hit", specs[i].Name)
		}
		if r.Schedule.Length() != cold[i].Schedule.Length() {
			t.Errorf("warm spec %s: %d cycles vs cold %d", specs[i].Name, r.Schedule.Length(), cold[i].Schedule.Length())
		}
	}
	if st := cache.Stats(); st.Hits != int64(len(specs)) {
		t.Fatalf("warm stats: %+v", st)
	}
}

func TestCacheHitAcrossDistinctIdenticalGraphs(t *testing.T) {
	c := NewCompiler(Options{Cache: NewShardedCache(0, 1)})
	ctx := context.Background()

	g1 := workloads.ThreeDFT()
	g2 := workloads.ThreeDFT() // distinct pointer, identical content
	if g1 == g2 {
		t.Fatal("generator returned a shared graph")
	}
	first, err := c.Compile(ctx, Spec{Name: "first", Graph: g1, Select: patsel.Config{Pdef: 4}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Compile(ctx, Spec{Name: "second", Graph: g2, Select: patsel.Config{Pdef: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical graph content should hit the cache")
	}
	if second.Schedule.Graph != g2 {
		t.Error("cached schedule not rebound to the requesting graph")
	}
	if err := second.Schedule.Verify(); err != nil {
		t.Errorf("rebound schedule invalid: %v", err)
	}
	if second.Schedule.Length() != first.Schedule.Length() {
		t.Errorf("rebound schedule %d cycles, original %d", second.Schedule.Length(), first.Schedule.Length())
	}
}

func TestConfigChangesMissCache(t *testing.T) {
	c := NewCompiler(Options{Cache: NewShardedCache(0, 1)})
	g := workloads.ThreeDFT()
	compile := func(spec Spec) *Report {
		t.Helper()
		rep, err := c.Compile(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	for i, spec := range []Spec{
		{Graph: g, Select: patsel.Config{Pdef: 4}},
		{Graph: g, Select: patsel.Config{Pdef: 3}},
		{Graph: g, Select: patsel.Config{Pdef: 4}, Sched: sched.Options{Priority: sched.F1}},
	} {
		if compile(spec).CacheHit {
			t.Errorf("spec %d: distinct config must not hit the cache", i)
		}
	}
	// Pdef 4 with explicit defaults equals the zero-config normalisation.
	if !compile(Spec{Graph: g, Select: patsel.Config{Pdef: 4, C: 5, MaxSpan: 1, Epsilon: 0.5, Alpha: 20}}).CacheHit {
		t.Error("normalised config should hit the zero-config entry")
	}
}

func TestAllocationInPipeline(t *testing.T) {
	arch := alloc.DefaultArch()
	c := NewCompiler(Options{Cache: NewShardedCache(0, 1)})
	spec := Spec{Name: "3dft+alloc", Graph: workloads.ThreeDFT(), Select: patsel.Config{Pdef: 4}, Arch: &arch}

	r, err := c.Compile(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Program == nil {
		t.Fatal("spec with Arch produced no program")
	}
	// An identical-content graph must hit and carry a rebound program.
	spec2 := spec
	spec2.Graph = workloads.ThreeDFT()
	r2, err := c.Compile(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.Program == nil {
		t.Fatalf("hit=%v program=%v", r2.CacheHit, r2.Program != nil)
	}
	if r2.Program.Graph != spec2.Graph || r2.Program.Schedule != r2.Schedule {
		t.Error("cached program not rebound to the requesting spec")
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	g1 := workloads.ThreeDFT()
	g2 := workloads.ThreeDFT()
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("identical graphs must share a fingerprint")
	}
	g2.MustAddNode(dfg.Node{Name: "extra", Color: "a"})
	if g1.Fingerprint() == g2.Fingerprint() {
		t.Fatal("mutated graph must change fingerprint")
	}
}

func TestEmptyBatch(t *testing.T) {
	if reps, errs := NewCompiler(Options{}).CompileAll(context.Background(), nil, 0); len(reps) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d reports, %d errors", len(reps), len(errs))
	}
}

// TestZeroValuePipelineDoesNotDeadlock: a zero-value Compiler and a zero
// worker count still compile (workers ≤ 0 means GOMAXPROCS).
func TestZeroValuePipelineDoesNotDeadlock(t *testing.T) {
	var c Compiler
	_, errs := c.CompileAll(context.Background(), []Spec{{Name: "z", Graph: workloads.ThreeDFT(), Select: patsel.Config{Pdef: 4}}}, 0)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

func TestConcurrentCompileSharedGraph(t *testing.T) {
	// Many specs sharing one cold *Graph through the pool: the graph's
	// goroutine-safe lazy caches must keep this race-free (run with -race).
	shared := workloads.ThreeDFT()
	c := NewCompiler(Options{Cache: NewShardedCache(0, 1)})
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Name: "shared", Graph: shared, Select: patsel.Config{Pdef: 3 + i%2}}
	}
	reps, errs := c.CompileAll(context.Background(), specs, 8)
	for i, r := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if r.Schedule.Graph != shared {
			t.Error("schedule not bound to the shared graph")
		}
	}
}
