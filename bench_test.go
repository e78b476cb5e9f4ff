// Benchmarks regenerating every table and figure of the paper, plus the
// ablation studies DESIGN.md calls out. Each benchmark measures the cost
// of the reproduced experiment and, on the first iteration, reports key
// result values as benchmark metrics so `go test -bench` output doubles as
// a results table (see EXPERIMENTS.md for the full paper-vs-measured log).
package mpsched_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mpsched"
	"mpsched/internal/antichain"
	"mpsched/internal/expmt"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/sched"
	"mpsched/internal/workloads"
)

// BenchmarkTable1Levels regenerates Table 1 (ASAP/ALAP/Height of 3DFT).
func BenchmarkTable1Levels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := expmt.Table1()
		if err != nil {
			b.Fatal(err)
		}
		reportMatchRatio(b, r)
	}
}

// BenchmarkTable2Schedule regenerates the 7-cycle Table 2 trace.
func BenchmarkTable2Schedule(b *testing.B) {
	g := mpsched.ThreeDFT()
	ps, err := mpsched.ParsePatternSet("aabcc aaacc")
	if err != nil {
		b.Fatal(err)
	}
	var cycles int
	for i := 0; i < b.N; i++ {
		s, err := mpsched.Schedule(g, ps, mpsched.SchedOptions{KeepTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.Length()
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkTable3PatternSets regenerates the three §4.4 pattern-set runs.
func BenchmarkTable3PatternSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expmt.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Antichains regenerates the Fig. 4 antichain classification.
func BenchmarkTable4Antichains(b *testing.B) {
	g := mpsched.Fig4Example()
	for i := 0; i < b.N; i++ {
		res, err := mpsched.EnumerateAntichains(g, mpsched.AntichainConfig{
			MaxSize: 2, MaxSpan: -1, KeepSets: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Classes) != 4 {
			b.Fatalf("classes = %d", len(res.Classes))
		}
	}
}

// BenchmarkTable5SpanSweep regenerates the antichain census of Table 5
// (the combinatorial core: sizes 1–5 × span limits 0–4 on the 3DFT).
func BenchmarkTable5SpanSweep(b *testing.B) {
	g := mpsched.ThreeDFT()
	var total int
	for i := 0; i < b.N; i++ {
		table, err := antichain.CountTable(g, 5, 4)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for k := 1; k <= 5; k++ {
			total += table[4][k]
		}
	}
	b.ReportMetric(float64(total), "antichains≤span4")
}

// BenchmarkTable6Selection regenerates the Fig. 4 worked selection.
func BenchmarkTable6Selection(b *testing.B) {
	g := mpsched.Fig4Example()
	for i := 0; i < b.N; i++ {
		sel, err := mpsched.SelectPatterns(g, mpsched.SelectConfig{
			C: 2, Pdef: 2, MaxSpan: mpsched.SpanUnlimited,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sel.Patterns.Len() != 2 {
			b.Fatal("selection broken")
		}
	}
}

// BenchmarkTable7RandomVsSelected regenerates the headline experiment:
// Random vs Selected over Pdef=1..5 on the 3DFT and the regenerated 5DFT.
func BenchmarkTable7RandomVsSelected(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := expmt.Table7()
		if err != nil {
			b.Fatal(err)
		}
		reportMatchRatio(b, r)
	}
}

// BenchmarkFig2Graph regenerates the reconstructed 3DFT graph and levels.
func BenchmarkFig2Graph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := mpsched.ThreeDFT()
		if g.Levels().CriticalPathLength() != 5 {
			b.Fatal("reconstruction broken")
		}
	}
}

// BenchmarkFig4Graph regenerates the small example graph.
func BenchmarkFig4Graph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := mpsched.Fig4Example()
		if g.N() != 5 {
			b.Fatal("fig4 broken")
		}
	}
}

// BenchmarkTheorem1Bound sweeps every 3DFT antichain and checks the span
// lower bound (the paper's Fig. 5 argument).
func BenchmarkTheorem1Bound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expmt.Theorem1(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5, A1–A5) ---

// BenchmarkAblationF1vsF2 compares the two pattern priority functions on
// the 3DFT and reports the cycle counts side by side.
func BenchmarkAblationF1vsF2(b *testing.B) {
	g := mpsched.ThreeDFT()
	ps, err := mpsched.ParsePatternSet("aabcc aaacc")
	if err != nil {
		b.Fatal(err)
	}
	var f1, f2 int
	for i := 0; i < b.N; i++ {
		s1, err := mpsched.Schedule(g, ps, mpsched.SchedOptions{Priority: mpsched.F1})
		if err != nil {
			b.Fatal(err)
		}
		s2, err := mpsched.Schedule(g, ps, mpsched.SchedOptions{Priority: mpsched.F2})
		if err != nil {
			b.Fatal(err)
		}
		f1, f2 = s1.Length(), s2.Length()
	}
	b.ReportMetric(float64(f1), "F1cycles")
	b.ReportMetric(float64(f2), "F2cycles")
}

// BenchmarkAblationSizeBonus toggles the α·|p̄|² term in Eq. 8.
func BenchmarkAblationSizeBonus(b *testing.B) {
	g := mpsched.ThreeDFT()
	var with, without int
	for i := 0; i < b.N; i++ {
		with = selectedLength(b, g, patsel.Config{C: 5, Pdef: 3, MaxSpan: 1})
		without = selectedLength(b, g, patsel.Config{C: 5, Pdef: 3, MaxSpan: 1, DisableSizeBonus: true})
	}
	b.ReportMetric(float64(with), "withBonus")
	b.ReportMetric(float64(without), "noBonus")
}

// BenchmarkAblationBalance toggles the balance denominator in Eq. 8.
func BenchmarkAblationBalance(b *testing.B) {
	g := mpsched.ThreeDFT()
	var with, without int
	for i := 0; i < b.N; i++ {
		with = selectedLength(b, g, patsel.Config{C: 5, Pdef: 3, MaxSpan: 1})
		without = selectedLength(b, g, patsel.Config{C: 5, Pdef: 3, MaxSpan: 1, DisableBalance: true})
	}
	b.ReportMetric(float64(with), "withBalance")
	b.ReportMetric(float64(without), "noBalance")
}

// BenchmarkAblationSpanLimit sweeps the span limit, reporting enumeration
// size and resulting schedule quality on the 3DFT.
func BenchmarkAblationSpanLimit(b *testing.B) {
	g := mpsched.ThreeDFT()
	var cycles [5]int
	var pool [5]int
	for i := 0; i < b.N; i++ {
		for span := 0; span <= 4; span++ {
			res, err := antichain.Enumerate(g, antichain.Config{MaxSize: 5, MaxSpan: span})
			if err != nil {
				b.Fatal(err)
			}
			pool[span] = res.Total()
			sel, err := patsel.SelectFrom(g, res, patsel.Config{C: 5, Pdef: 4})
			if err != nil {
				b.Fatal(err)
			}
			s, err := sched.MultiPattern(g, sel.Patterns, sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cycles[span] = s.Length()
		}
	}
	for span := 0; span <= 4; span++ {
		b.ReportMetric(float64(cycles[span]), spanMetric("cycles", span))
		b.ReportMetric(float64(pool[span]), spanMetric("pool", span))
	}
}

func spanMetric(kind string, span int) string {
	return kind + "@span" + string(rune('0'+span))
}

// BenchmarkAblationTieBreak measures tie-break policy sensitivity across
// random workloads: max spread in cycles across the four policies.
func BenchmarkAblationTieBreak(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	graphs := make([]*mpsched.Graph, 10)
	sets := make([]*mpsched.PatternSet, 10)
	for i := range graphs {
		graphs[i] = workloads.RandomColored(rng, workloads.DefaultRandomColoredConfig())
		ps, err := patsel.Random(graphs[i], patsel.Config{C: 5, Pdef: 3}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = ps
	}
	var maxSpread int
	for i := 0; i < b.N; i++ {
		maxSpread = 0
		for j, g := range graphs {
			lo, hi := 1<<30, 0
			for _, tb := range []sched.TieBreak{sched.TieIndexDesc, sched.TieIndexAsc, sched.TieStable, sched.TieRandom} {
				s, err := mpsched.Schedule(g, sets[j], mpsched.SchedOptions{TieBreak: tb, Seed: 9})
				if err != nil {
					b.Fatal(err)
				}
				if s.Length() < lo {
					lo = s.Length()
				}
				if s.Length() > hi {
					hi = s.Length()
				}
			}
			if hi-lo > maxSpread {
				maxSpread = hi - lo
			}
		}
	}
	b.ReportMetric(float64(maxSpread), "maxSpread")
}

// BenchmarkAntichainEnumeration5DFT measures the enumeration engine on the
// larger 76-node 5DFT at the default span limit.
func BenchmarkAntichainEnumeration5DFT(b *testing.B) {
	g, err := mpsched.NPointDFT(5)
	if err != nil {
		b.Fatal(err)
	}
	var total int
	for i := 0; i < b.N; i++ {
		res, err := antichain.Enumerate(g, antichain.Config{MaxSize: 5, MaxSpan: 1})
		if err != nil {
			b.Fatal(err)
		}
		total = res.Total()
	}
	b.ReportMetric(float64(total), "antichains")
}

// BenchmarkSchedule5DFT measures scheduling throughput on the 5DFT.
func BenchmarkSchedule5DFT(b *testing.B) {
	g, err := mpsched.NPointDFT(5)
	if err != nil {
		b.Fatal(err)
	}
	sel, _, _, err := patsel.SelectBestSpan(g, patsel.Config{C: 5, Pdef: 4}, []int{1, 2}, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpsched.Schedule(g, sel.Patterns, mpsched.SchedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline3DFT measures source-to-simulation: selection,
// scheduling, allocation, tile execution.
func BenchmarkFullPipeline3DFT(b *testing.B) {
	g := mpsched.ThreeDFT()
	inputs := workloads.DFTInputs([]complex128{1, 2i, complex(3, -1)})
	for i := 0; i < b.N; i++ {
		sel, err := mpsched.SelectPatterns(g, mpsched.SelectConfig{C: 5, Pdef: 4, MaxSpan: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := mpsched.Schedule(g, sel.Patterns, mpsched.SchedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := mpsched.Allocate(s, mpsched.DefaultArch())
		if err != nil {
			b.Fatal(err)
		}
		tile, err := mpsched.NewTile(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tile.Run(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func selectedLength(b *testing.B, g *mpsched.Graph, cfg patsel.Config) int {
	b.Helper()
	sel, err := patsel.Select(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.MultiPattern(g, sel.Patterns, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s.Length()
}

func reportMatchRatio(b *testing.B, r *expmt.Report) {
	b.Helper()
	match, total := r.Matched()
	if total > 0 {
		b.ReportMetric(float64(match)/float64(total), "matchRatio")
	}
}

// BenchmarkOptimalVsHeuristic runs the branch-and-bound optimum against
// the list heuristic on the 3DFT with the paper's patterns, reporting both
// lengths (the heuristic's 7 cycles is provably optimal here).
func BenchmarkOptimalVsHeuristic(b *testing.B) {
	g := mpsched.ThreeDFT()
	ps, err := mpsched.ParsePatternSet("aabcc aaacc")
	if err != nil {
		b.Fatal(err)
	}
	var opt, heur int
	for i := 0; i < b.N; i++ {
		o, err := mpsched.ScheduleOptimal(g, ps, 0)
		if err != nil {
			b.Fatal(err)
		}
		h, err := mpsched.Schedule(g, ps, mpsched.SchedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		opt, heur = o.Length(), h.Length()
	}
	b.ReportMetric(float64(opt), "optimal")
	b.ReportMetric(float64(heur), "heuristic")
}

// BenchmarkForceDirectedVsMultiPattern compares the classic single-bag
// force-directed heuristic against multi-pattern scheduling with the same
// total resources — the paper's motivating contrast.
func BenchmarkForceDirectedVsMultiPattern(b *testing.B) {
	g := mpsched.ThreeDFT()
	single, err := mpsched.ParsePattern("aabcc")
	if err != nil {
		b.Fatal(err)
	}
	multi, err := mpsched.ParsePatternSet("aabcc aaacc")
	if err != nil {
		b.Fatal(err)
	}
	var fds, mp int
	for i := 0; i < b.N; i++ {
		f, err := mpsched.ScheduleForceDirected(g, single, 0)
		if err != nil {
			b.Fatal(err)
		}
		m, err := mpsched.Schedule(g, multi, mpsched.SchedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fds, mp = f.Length(), m.Length()
	}
	b.ReportMetric(float64(fds), "forceDirected")
	b.ReportMetric(float64(mp), "multiPattern")
}

// BenchmarkWidth measures Dilworth width computation (matching-based) on
// the 5DFT.
func BenchmarkWidth(b *testing.B) {
	g, err := mpsched.NPointDFT(5)
	if err != nil {
		b.Fatal(err)
	}
	var w int
	for i := 0; i < b.N; i++ {
		w = mpsched.Width(g)
	}
	b.ReportMetric(float64(w), "width")
}

// BenchmarkGreedyVsExhaustiveSelection quantifies the greedy selector's
// optimality gap over its own candidate pool (3DFT, Pdef=2, span≤1):
// greedy reaches 7 cycles, the exhaustive subset optimum 6.
func BenchmarkGreedyVsExhaustiveSelection(b *testing.B) {
	g := mpsched.ThreeDFT()
	cfg := patsel.Config{C: 5, Pdef: 2, MaxSpan: 1}
	var greedy, exhaustive int
	for i := 0; i < b.N; i++ {
		sel, err := patsel.Select(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gs, err := sched.MultiPattern(g, sel.Patterns, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		_, es, err := patsel.Exhaustive(g, cfg, sched.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		greedy, exhaustive = gs.Length(), es.Length()
	}
	b.ReportMetric(float64(greedy), "greedy")
	b.ReportMetric(float64(exhaustive), "exhaustive")
}

// BenchmarkParallelEnumeration compares sequential and worker-pool
// antichain enumeration on the 5DFT (span ≤ 1).
func BenchmarkParallelEnumeration(b *testing.B) {
	g, err := mpsched.NPointDFT(5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := antichain.Config{MaxSize: 5, MaxSpan: 1}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := antichain.Enumerate(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := antichain.EnumerateParallel(g, cfg, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pipelineFleet builds the mixed ≥16-job batch the throughput benchmarks
// compile: DFT sizes, FIR filters, matrix products and butterfly networks,
// the fleet shape a production tile compiler would see under traffic.
func pipelineFleet(b *testing.B) []pipeline.Spec {
	b.Helper()
	specs := []struct {
		name string
		gen  func() (*mpsched.Graph, error)
	}{
		{"3dft", func() (*mpsched.Graph, error) { return mpsched.ThreeDFT(), nil }},
		{"4dft", func() (*mpsched.Graph, error) { return mpsched.NPointDFT(4) }},
		{"5dft", func() (*mpsched.Graph, error) { return mpsched.NPointDFT(5) }},
		{"fir8x4", func() (*mpsched.Graph, error) { return mpsched.FIRFilter(8, 4) }},
		{"fir12x2", func() (*mpsched.Graph, error) { return mpsched.FIRFilter(12, 2) }},
		{"matmul3", func() (*mpsched.Graph, error) { return mpsched.MatMul(3) }},
		{"butterfly3", func() (*mpsched.Graph, error) { return mpsched.Butterfly(3) }},
		{"butterfly4", func() (*mpsched.Graph, error) { return mpsched.Butterfly(4) }},
	}
	var jobs []pipeline.Spec
	for _, pdef := range []int{3, 4} {
		for _, s := range specs {
			g, err := s.gen()
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, pipeline.Spec{
				Name:   fmt.Sprintf("%s/pdef%d", s.name, pdef),
				Graph:  g,
				Select: patsel.Config{Pdef: pdef},
			})
		}
	}
	return jobs
}

// runFleet compiles the batch on the given number of workers (≤ 0:
// GOMAXPROCS).
func runFleet(b *testing.B, jobs []pipeline.Spec, c *pipeline.Compiler, workers int) {
	b.Helper()
	_, errs := c.CompileAll(context.Background(), jobs, workers)
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBatch measures batch-compilation throughput over the
// 16-job mixed fleet: sequential vs. pooled workers (cold cache each
// round) and a warm shared cache. jobs/sec is reported per variant; the
// cachespeedup variant times a cold round against a warm round inside
// each iteration and reports the measured speedup and hit count.
func BenchmarkPipelineBatch(b *testing.B) {
	jobs := pipelineFleet(b)

	reportThroughput := func(b *testing.B, start time.Time) {
		b.Helper()
		jobsPerSec := float64(len(jobs)*b.N) / time.Since(start).Seconds()
		b.ReportMetric(jobsPerSec, "jobs/sec")
	}

	b.Run("sequential", func(b *testing.B) {
		c := pipeline.NewCompiler(pipeline.Options{})
		start := time.Now()
		for i := 0; i < b.N; i++ {
			runFleet(b, jobs, c, 1)
		}
		reportThroughput(b, start)
	})
	b.Run("pooled", func(b *testing.B) {
		c := pipeline.NewCompiler(pipeline.Options{})
		start := time.Now()
		for i := 0; i < b.N; i++ {
			runFleet(b, jobs, c, 0)
		}
		reportThroughput(b, start)
	})
	b.Run("warmcache", func(b *testing.B) {
		c := pipeline.NewCompiler(pipeline.Options{Cache: pipeline.NewShardedCache(0, 1)})
		runFleet(b, jobs, c, 0) // fill the cache outside the timer
		filled := c.Cache().Stats()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			runFleet(b, jobs, c, 0)
		}
		reportThroughput(b, start)
		// Hit rate of the timed region only, excluding the fill round.
		after := c.Cache().Stats()
		hits, misses := after.Hits-filled.Hits, after.Misses-filled.Misses
		b.ReportMetric(float64(hits)/float64(hits+misses), "hitRate")
	})
	b.Run("cachespeedup", func(b *testing.B) {
		var coldSec, warmSec float64
		var hits int64
		for i := 0; i < b.N; i++ {
			cache := pipeline.NewShardedCache(0, 1)
			c := pipeline.NewCompiler(pipeline.Options{Cache: cache})
			coldStart := time.Now()
			runFleet(b, jobs, c, 0)
			coldSec += time.Since(coldStart).Seconds()
			warmStart := time.Now()
			runFleet(b, jobs, c, 0)
			warmSec += time.Since(warmStart).Seconds()
			hits = cache.Stats().Hits
		}
		b.ReportMetric(coldSec/warmSec, "coldOverWarm")
		b.ReportMetric(float64(hits), "warmHits")
	})
}

// BenchmarkPipelineSequentialVsPooled is the headline scaling check: the
// same ≥16-job batch through 1 worker and through the full pool, reported
// as paired metrics so a single run shows the speedup.
func BenchmarkPipelineSequentialVsPooled(b *testing.B) {
	jobs := pipelineFleet(b)
	var seqSec, poolSec float64
	c := pipeline.NewCompiler(pipeline.Options{})
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		runFleet(b, jobs, c, 1)
		seqSec += time.Since(t0).Seconds()
		t0 = time.Now()
		runFleet(b, jobs, c, 0)
		poolSec += time.Since(t0).Seconds()
	}
	n := float64(len(jobs) * b.N)
	b.ReportMetric(n/seqSec, "seqJobs/sec")
	b.ReportMetric(n/poolSec, "pooledJobs/sec")
	b.ReportMetric(seqSec/poolSec, "poolSpeedup")
}

// BenchmarkAblationSwitchPenalty measures the reconfiguration-stability
// extension: cycles and switches with and without the penalty.
func BenchmarkAblationSwitchPenalty(b *testing.B) {
	g := mpsched.ThreeDFT()
	ps, err := mpsched.ParsePatternSet("aabcc aaacc")
	if err != nil {
		b.Fatal(err)
	}
	var plainSw, stickySw, plainLen, stickyLen int
	for i := 0; i < b.N; i++ {
		plain, err := mpsched.Schedule(g, ps, mpsched.SchedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sticky, err := mpsched.Schedule(g, ps, mpsched.SchedOptions{SwitchPenalty: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		plainSw, stickySw = plain.Switches(), sticky.Switches()
		plainLen, stickyLen = plain.Length(), sticky.Length()
	}
	b.ReportMetric(float64(plainSw), "plainSwitches")
	b.ReportMetric(float64(stickySw), "stickySwitches")
	b.ReportMetric(float64(plainLen), "plainCycles")
	b.ReportMetric(float64(stickyLen), "stickyCycles")
}
