package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpsched/internal/alloc"
	"mpsched/internal/antichain"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/sched"
	"mpsched/internal/transform"
	"mpsched/internal/workloads"
)

func TestCompileFullFlow(t *testing.T) {
	c := NewCompiler(Options{})
	arch := alloc.DefaultArch()
	rep, err := c.Compile(context.Background(), NewSpec(workloads.ThreeDFT(),
		WithSelect(patsel.Config{C: 5, Pdef: 4}),
		WithArch(arch)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selection == nil || rep.Schedule == nil || rep.Program == nil {
		t.Fatalf("missing artifacts: %+v", rep)
	}
	if rep.Census == nil || rep.Census.Antichains == 0 || rep.Census.Classes == 0 {
		t.Errorf("census summary missing: %+v", rep.Census)
	}
	if rep.Span != 1 {
		t.Errorf("effective span = %d, want the default 1", rep.Span)
	}
	wantStages := []Stage{StageCensus, StageSelect, StageSchedule, StageAllocate}
	var got []Stage
	for _, st := range rep.Stages {
		got = append(got, st.Stage)
	}
	if !reflect.DeepEqual(got, wantStages) {
		t.Errorf("stages = %v, want %v", got, wantStages)
	}
	if rep.Elapsed <= 0 {
		t.Error("no total elapsed time")
	}
}

func TestCompileStopAfter(t *testing.T) {
	g := workloads.ThreeDFT()
	c := NewCompiler(Options{})
	cfg := patsel.Config{C: 5, Pdef: 4}

	census, err := c.Compile(context.Background(), NewSpec(g, WithSelect(cfg), WithStopAfter(StageCensus)))
	if err != nil {
		t.Fatal(err)
	}
	if census.Enumerated == nil || census.Census == nil {
		t.Fatal("census-only compile has no census")
	}
	if census.Selection != nil || census.Schedule != nil {
		t.Error("census-only compile ran later stages")
	}

	sel, err := c.Compile(context.Background(), NewSpec(g, WithSelect(cfg), WithStopAfter(StageSelect)))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Selection == nil {
		t.Fatal("select-only compile has no selection")
	}
	if sel.Schedule != nil || sel.Program != nil {
		t.Error("select-only compile ran later stages")
	}

	// The select-only result matches the direct algorithm.
	want, err := patsel.Select(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Selection.Patterns.String() != want.Patterns.String() {
		t.Errorf("select-only patterns %v != direct %v", sel.Selection.Patterns, want.Patterns)
	}
}

func TestCompileExplicitPatterns(t *testing.T) {
	g := workloads.ThreeDFT()
	ps, err := pattern.ParseSet("aabcc aaacc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewCompiler(Options{}).Compile(context.Background(),
		NewSpec(g, WithPatterns(ps)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selection != nil || rep.Census != nil {
		t.Error("explicit patterns should skip census and selection")
	}
	if rep.Schedule.Length() != 7 {
		t.Errorf("got %d cycles, want the paper's 7", rep.Schedule.Length())
	}
}

func TestCompileSourceSpec(t *testing.T) {
	c := NewCompiler(Options{})
	rep, err := c.Compile(context.Background(), NewSourceSpec("y: out = (p+q)*(p-q)",
		WithSourceOptions(transform.Options{Name: "demo"}),
		WithStopAfter(StageParse)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph == nil || rep.Graph.N() != 3 {
		t.Fatalf("parse-only compile graph: %+v", rep.Graph)
	}
	if rep.Name != "demo" {
		t.Errorf("report name %q, want %q", rep.Name, "demo")
	}
	if len(rep.Stages) != 1 || rep.Stages[0].Stage != StageParse {
		t.Errorf("stages = %v, want [parse]", rep.Stages)
	}

	// And all the way through: source to schedule.
	full, err := c.Compile(context.Background(), NewSourceSpec("y: out = (p+q)*(p-q)",
		WithSourceOptions(transform.Options{Name: "demo"}),
		WithSelect(patsel.Config{C: 2, Pdef: 2, MaxSpan: patsel.SpanUnlimited})))
	if err != nil {
		t.Fatal(err)
	}
	if full.Schedule == nil {
		t.Fatal("full source compile has no schedule")
	}
}

func TestCompileSpanSweep(t *testing.T) {
	g, err := workloads.NPointDFT(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := patsel.Config{C: 5, Pdef: 4}
	rep, err := NewCompiler(Options{}).Compile(context.Background(),
		NewSpec(g, WithSelect(cfg), WithSpans(0, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SweptSpans {
		t.Error("SweptSpans not set")
	}

	wantSel, wantSched, wantSpan, err := patsel.SelectBestSpan(g, cfg, []int{0, 1, 2}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Span != wantSpan {
		t.Errorf("winning span %d, want %d", rep.Span, wantSpan)
	}
	if rep.Schedule.Length() != wantSched.Length() {
		t.Errorf("schedule %d cycles, want %d", rep.Schedule.Length(), wantSched.Length())
	}
	if rep.Selection.Patterns.String() != wantSel.Patterns.String() {
		t.Errorf("selection %v, want %v", rep.Selection.Patterns, wantSel.Patterns)
	}
	if rep.Census == nil || rep.Census.Span != wantSpan {
		t.Errorf("census summary should describe the winning span: %+v", rep.Census)
	}
}

func TestCompileStageHookObservesEveryStage(t *testing.T) {
	g := workloads.ThreeDFT()
	var seen []Stage
	var spans []int
	_, err := NewCompiler(Options{}).Compile(context.Background(), NewSpec(g,
		WithSelect(patsel.Config{C: 5, Pdef: 4}),
		WithSpans(0, 1),
		WithStageHook(func(si StageInfo) {
			seen = append(seen, si.Stage)
			spans = append(spans, si.Span)
			if si.Report == nil {
				t.Error("hook got a nil report")
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageCensus, StageSelect, StageSchedule, StageCensus, StageSelect, StageSchedule}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("hook stages = %v, want %v", seen, want)
	}
	if !reflect.DeepEqual(spans, []int{0, 0, 0, 1, 1, 1}) {
		t.Errorf("hook spans = %v", spans)
	}
}

func TestCompileCacheRoundTrip(t *testing.T) {
	cache := NewShardedCache(0, 1)
	c := NewCompiler(Options{Cache: cache})
	g := workloads.ThreeDFT()
	spec := NewSpec(g, WithSelect(patsel.Config{C: 5, Pdef: 4}))

	cold, err := c.Compile(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first compile reported a cache hit")
	}
	warm, err := c.Compile(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second compile missed the cache")
	}
	if warm.Schedule.Length() != cold.Schedule.Length() {
		t.Error("cached schedule differs")
	}
	if warm.Census == nil || *warm.Census != *cold.Census {
		t.Errorf("cached census summary lost: %+v vs %+v", warm.Census, cold.Census)
	}
	if len(warm.Stages) != 0 {
		t.Errorf("cache hit reports stage timings: %v", warm.Stages)
	}

	// A different stop stage is a different cache key: a select-only
	// compile must not be answered with (or poison) the full entry.
	selOnly, err := c.Compile(context.Background(),
		NewSpec(g, WithSelect(patsel.Config{C: 5, Pdef: 4}), WithStopAfter(StageSelect)))
	if err != nil {
		t.Fatal(err)
	}
	if selOnly.CacheHit {
		t.Error("select-only compile hit the full-compile entry")
	}
	if selOnly.Schedule != nil {
		t.Error("select-only compile has a schedule")
	}

	// Select-only results are cached under their own key: the repeat
	// hits, still without a schedule.
	selAgain, err := c.Compile(context.Background(),
		NewSpec(g, WithSelect(patsel.Config{C: 5, Pdef: 4}), WithStopAfter(StageSelect)))
	if err != nil {
		t.Fatal(err)
	}
	if !selAgain.CacheHit {
		t.Error("repeated select-only compile missed the cache")
	}
	if selAgain.Schedule != nil {
		t.Error("cached select-only result grew a schedule")
	}
	if selAgain.Selection.Patterns.String() != selOnly.Selection.Patterns.String() {
		t.Error("cached select-only selection differs")
	}

	// WithoutCache bypasses lookup and store.
	bypass, err := c.Compile(context.Background(), NewSpec(g,
		WithSelect(patsel.Config{C: 5, Pdef: 4}), WithoutCache()))
	if err != nil {
		t.Fatal(err)
	}
	if bypass.CacheHit {
		t.Error("CacheBypass compile reported a hit")
	}
}

// TestCompileCancelledBetweenStages pins the satellite requirement: a
// context cancelled after selection but before scheduling returns
// ctx.Err() and never writes a partial cache entry.
func TestCompileCancelledBetweenStages(t *testing.T) {
	cache := NewShardedCache(0, 1)
	c := NewCompiler(Options{Cache: cache})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	_, err := c.Compile(ctx, NewSpec(workloads.ThreeDFT(),
		WithSelect(patsel.Config{C: 5, Pdef: 4}),
		WithStageHook(func(si StageInfo) {
			if si.Stage == StageSelect {
				cancel() // cancelled between select and schedule
			}
		})))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cancelled compile wrote %d cache entries", n)
	}

	// The same spec compiles cleanly afterwards — nothing half-written
	// satisfies its key.
	rep, err := c.Compile(context.Background(), NewSpec(workloads.ThreeDFT(),
		WithSelect(patsel.Config{C: 5, Pdef: 4})))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("fresh compile hit a cache entry the cancelled run should not have written")
	}
}

// TestPipelineCancelledBetweenStages covers the same guarantee through
// CompileAll: a batch cancelled between select and schedule fails its
// spec with the context's error and caches nothing.
func TestPipelineCancelledBetweenStages(t *testing.T) {
	cache := NewShardedCache(0, 1)
	c := NewCompiler(Options{Cache: cache})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reps, errs := c.CompileAll(ctx, []Spec{NewSpec(workloads.ThreeDFT(),
		WithSelect(patsel.Config{Pdef: 4}),
		WithStageHook(func(si StageInfo) {
			if si.Stage == StageSelect {
				cancel()
			}
		}))}, 1)
	if !errors.Is(errs[0], context.Canceled) || reps[0] != nil {
		t.Fatalf("rep = %v, err = %v, want context.Canceled", reps[0], errs[0])
	}
	if cache.Len() != 0 {
		t.Fatal("cancelled spec wrote a cache entry")
	}
}

func TestValidateSpec(t *testing.T) {
	g := workloads.Fig4Small()
	ps := pattern.NewSet(pattern.New("a", "a"))
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" = valid
	}{
		{"no input", Spec{}, "no graph"},
		{"both inputs", Spec{Graph: g, Source: "y: out = a+b"}, "both graph and source"},
		{"graph stop parse", Spec{Graph: g, StopAfter: StageParse}, "stop_after=parse"},
		{"allocate without arch", Spec{Graph: g, StopAfter: StageAllocate}, "needs an arch"},
		{"patterns with sweep", Spec{Graph: g, Patterns: ps, Spans: []int{0, 1}}, "exclusive"},
		{"patterns stop select", Spec{Graph: g, Patterns: ps, StopAfter: StageSelect}, "skip the select stage"},
		{"sweep stop census", Spec{Graph: g, Spans: []int{0, 1}, StopAfter: StageCensus}, "cannot stop after census"},
		{"sweep stop select", Spec{Graph: g, Spans: []int{0, 1}, StopAfter: StageSelect}, "cannot stop after select"},
		{"valid graph", Spec{Graph: g, Select: patsel.Config{Pdef: 1}}, ""},
		{"valid patterns", Spec{Graph: g, Patterns: ps, StopAfter: StageSchedule}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSpec(tc.spec)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestStageErrorTagsFailures(t *testing.T) {
	// Pdef over the color-condition feasible range still selects, but an
	// unschedulable explicit pattern set fails in the schedule stage.
	g := workloads.ThreeDFT()
	ps := pattern.NewSet(pattern.New("z")) // color not in the graph
	_, err := NewCompiler(Options{}).Compile(context.Background(),
		NewSpec(g, WithPatterns(ps)))
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *StageError", err)
	}
	if se.Stage != StageSchedule {
		t.Errorf("stage = %v, want schedule", se.Stage)
	}
}

func TestParseStage(t *testing.T) {
	for _, st := range []Stage{StageAll, StageParse, StageCensus, StageSelect, StageSchedule, StageAllocate} {
		name := st.String()
		if st == StageAll {
			name = "" // the empty wire form
		}
		got, err := ParseStage(name)
		if err != nil || got != st {
			t.Errorf("ParseStage(%q) = %v, %v; want %v", name, got, err, st)
		}
	}
	if got, err := ParseStage("all"); err != nil || got != StageAll {
		t.Errorf("ParseStage(all) = %v, %v", got, err)
	}
	if _, err := ParseStage("link"); err == nil {
		t.Error("ParseStage accepted an unknown stage")
	}
}

func TestSpecLabelIncludesSpans(t *testing.T) {
	g := workloads.ThreeDFT()
	plain := Spec{Name: "fleet", Graph: g}
	swept := Spec{Name: "fleet", Graph: g, Spans: []int{0, 1, 2}}
	if plain.Label() == swept.Label() {
		t.Fatalf("specs differing only by spans share the label %q", plain.Label())
	}
	if got, want := swept.Label(), "fleet[spans=0,1,2]"; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
	if got, want := plain.Label(), "fleet"; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
	// Fallback to the graph name still works.
	if got, want := (Spec{Graph: g}).Label(), g.Name; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
}

func TestCensusSummaryMatchesEnumeration(t *testing.T) {
	g := workloads.ThreeDFT()
	rep, err := NewCompiler(Options{}).Compile(context.Background(),
		NewSpec(g, WithSelect(patsel.Config{C: 5, Pdef: 4}), WithStopAfter(StageCensus)))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := antichain.Enumerate(g, antichain.Config{MaxSize: 5, MaxSpan: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Census.Antichains != direct.Total() || rep.Census.Classes != len(direct.Classes) {
		t.Errorf("summary %+v does not match direct census (%d antichains, %d classes)",
			rep.Census, direct.Total(), len(direct.Classes))
	}
}

func TestCompileRecoversPanicToError(t *testing.T) {
	// A zero-value Graph has no backing digraph; the census stage
	// dereferences it and panics. Compile must convert that into a
	// *PanicError instead of crashing the process.
	var g dfg.Graph
	rep, err := NewCompiler(Options{}).Compile(context.Background(),
		NewSpec(&g, WithSelect(patsel.Config{Pdef: 4})))
	if rep != nil {
		t.Fatalf("panicking compile returned a report: %+v", rep)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value == nil || len(pe.Stack) == 0 {
		t.Fatalf("PanicError missing value or stack: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "compile panicked") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}
