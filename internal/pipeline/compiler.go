package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpsched/internal/alloc"
	"mpsched/internal/antichain"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/sched"
	"mpsched/internal/transform"
)

// Stage names one step of the compile flow, in execution order. The zero
// value StageAll means "run every stage the spec asks for", so a
// zero-valued Spec compiles end to end.
type Stage int

const (
	// StageAll runs through the spec's last requested stage (allocate
	// when an Arch is set, schedule otherwise).
	StageAll Stage = iota
	// StageParse lowers expression source to a data-flow graph.
	StageParse
	// StageCensus enumerates the bounded-span antichains (§5.1).
	StageCensus
	// StageSelect runs pattern selection over the census (§5.2).
	StageSelect
	// StageSchedule runs multi-pattern list scheduling (§4).
	StageSchedule
	// StageAllocate binds the schedule to a tile architecture.
	StageAllocate
)

// stageNames is indexed by Stage; keep in sync with the constants.
var stageNames = [...]string{"all", "parse", "census", "select", "schedule", "allocate"}

func (s Stage) String() string {
	if s < 0 || int(s) >= len(stageNames) {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// ParseStage maps a stage name ("select", "schedule", ...) back to its
// Stage. The empty string parses as StageAll.
func ParseStage(name string) (Stage, error) {
	if name == "" {
		return StageAll, nil
	}
	for i, n := range stageNames {
		if n == name {
			return Stage(i), nil
		}
	}
	return 0, fmt.Errorf("unknown stage %q (want one of %s)", name, strings.Join(stageNames[:], ", "))
}

// CachePolicy says how a single spec interacts with the compiler's result
// cache.
type CachePolicy int

const (
	// CacheDefault consults and fills the compiler's cache, when it has one.
	CacheDefault CachePolicy = iota
	// CacheBypass skips both lookup and store for this spec — useful for
	// measurement runs that must not be answered from (or warm) the cache.
	CacheBypass
)

// Spec is one complete, self-contained compilation problem: a graph (or
// expression source), the configuration of every stage, and how far to
// run. Build it with NewSpec/NewSourceSpec and the With... options, or
// fill the fields directly — the zero value of every knob means "the
// paper's default".
type Spec struct {
	// Name labels the spec in reports and logs; empty falls back to the
	// graph's name.
	Name string
	// Graph is the data-flow graph to compile. Specs may share a *Graph:
	// its lazy caches are goroutine-safe.
	Graph *dfg.Graph
	// Source, when Graph is nil, is expression-language source lowered by
	// the parse stage (transform.Compile).
	Source string
	// SourceOpts configures the parse stage (graph name, CSE/folding
	// ablations, color mapping).
	SourceOpts transform.Options
	// Patterns, when non-nil, is an explicit pattern set: census and
	// selection are skipped and the graph is scheduled against it.
	Patterns *pattern.Set
	// Select parameterises pattern selection (zero value = paper
	// defaults, but Pdef must be ≥ 1 when selection runs).
	Select patsel.Config
	// Sched parameterises the multi-pattern list scheduler.
	Sched sched.Options
	// Arch, when non-nil, runs allocation after scheduling, producing a
	// Program executable on the Montium simulator.
	Arch *alloc.Arch
	// Spans, when non-empty, sweeps these span limits: one census +
	// selection + schedule per limit, keeping the candidate whose
	// schedule is shortest (ties to the earlier limit). Unlike
	// Select.MaxSpan, a literal 0 here means span ≤ 0.
	Spans []int
	// StopAfter ends the compile after the named stage; StageAll (the
	// zero value) runs everything the spec asks for. StopAfter enables
	// the partial compiles — census-only, select-only — that previously
	// required importing the internal packages.
	StopAfter Stage
	// Cache selects the spec's cache interaction (default: use the
	// compiler's cache when it has one).
	Cache CachePolicy
	// Hook, when non-nil, is called after every completed stage with the
	// stage, its wall-clock cost, and the in-progress report. During a
	// span sweep it fires once per swept span for census, select and
	// schedule, with StageInfo.Span saying which.
	Hook StageHook
}

// SpecOption mutates a Spec under construction.
type SpecOption func(*Spec)

// NewSpec returns a Spec compiling g, customised by opts.
func NewSpec(g *dfg.Graph, opts ...SpecOption) Spec {
	s := Spec{Graph: g}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// NewSourceSpec returns a Spec whose graph is lowered from expression
// source by the parse stage.
func NewSourceSpec(src string, opts ...SpecOption) Spec {
	s := Spec{Source: src}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithName labels the spec.
func WithName(name string) SpecOption { return func(s *Spec) { s.Name = name } }

// WithSelect sets the pattern selection configuration.
func WithSelect(cfg patsel.Config) SpecOption { return func(s *Spec) { s.Select = cfg } }

// WithSchedule sets the list scheduler options.
func WithSchedule(opts sched.Options) SpecOption { return func(s *Spec) { s.Sched = opts } }

// WithPatterns schedules against an explicit pattern set, skipping census
// and selection.
func WithPatterns(ps *pattern.Set) SpecOption { return func(s *Spec) { s.Patterns = ps } }

// WithArch requests allocation onto the architecture after scheduling.
func WithArch(a alloc.Arch) SpecOption { return func(s *Spec) { s.Arch = &a } }

// WithSpans sweeps the given span limits and keeps the best schedule.
func WithSpans(spans ...int) SpecOption { return func(s *Spec) { s.Spans = spans } }

// WithStopAfter ends the compile after the named stage.
func WithStopAfter(st Stage) SpecOption { return func(s *Spec) { s.StopAfter = st } }

// WithSourceOptions configures the parse stage for source-based specs.
func WithSourceOptions(o transform.Options) SpecOption { return func(s *Spec) { s.SourceOpts = o } }

// WithStageHook installs a per-stage observer.
func WithStageHook(h StageHook) SpecOption { return func(s *Spec) { s.Hook = h } }

// WithoutCache makes the spec bypass the compiler's result cache.
func WithoutCache() SpecOption { return func(s *Spec) { s.Cache = CacheBypass } }

// Label returns the spec's display name: the explicit Name, else the
// graph's name, else SourceOpts.Name, else "?". A span sweep is part of
// the name ("fleet[spans=0,1,2]"): two specs differing only by their
// swept spans must stay distinguishable in reports, logs and metrics.
func (s Spec) Label() string {
	var name string
	switch {
	case s.Name != "":
		name = s.Name
	case s.Graph != nil && s.Graph.Name != "":
		name = s.Graph.Name
	case s.SourceOpts.Name != "":
		name = s.SourceOpts.Name
	default:
		name = "?"
	}
	if len(s.Spans) == 0 {
		return name
	}
	b := append([]byte(name), "[spans="...)
	for i, sp := range s.Spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(sp), 10)
	}
	return string(append(b, ']'))
}

// lastStage is the spec's natural final stage under StopAfter == StageAll.
func (s Spec) lastStage() Stage {
	if s.StopAfter != StageAll {
		return s.StopAfter
	}
	if s.Arch != nil {
		return StageAllocate
	}
	return StageSchedule
}

// StageTiming is the wall-clock cost of one completed stage. Under a span
// sweep the census/select/schedule entries aggregate all swept spans.
type StageTiming struct {
	Stage   Stage
	Elapsed time.Duration
}

// CensusSummary condenses an antichain census for reports and the wire:
// the full Result stays reachable via Report.Enumerated (and
// Selection.Enumerated) for callers that need the classes.
type CensusSummary struct {
	// Antichains is the total number of enumerated antichains.
	Antichains int
	// Classes is the number of distinct pattern classes.
	Classes int
	// Span is the span limit the census ran under (the winning limit
	// after a sweep).
	Span int
}

// StageInfo is the argument to a StageHook: which stage just finished,
// what it cost, and the report as filled in so far. Report is shared with
// the compile in progress — hooks must treat it as read-only.
type StageInfo struct {
	Stage   Stage
	Elapsed time.Duration
	// Span is the span limit being processed; meaningful for census,
	// select and schedule during a span sweep, otherwise the effective
	// selection span.
	Span   int
	Report *Report
}

// StageHook observes stage completions (timings, intermediate results).
type StageHook func(StageInfo)

// Report is the outcome of Compiler.Compile: every artifact the compile
// produced up to its stop stage, plus per-stage timings.
type Report struct {
	// Name is the spec's label.
	Name string
	// Graph is the compiled graph (parsed from source for source specs).
	Graph *dfg.Graph
	// Census summarises the antichain census (nil when the census did not
	// run: explicit-pattern specs, parse-only compiles, cache hits).
	Census *CensusSummary
	// Enumerated is the full census behind Census (nil on cache hits —
	// cached entries keep only the summary).
	Enumerated *antichain.Result
	// Selection is the pattern selection (nil for explicit-pattern specs
	// and compiles stopped before selection).
	Selection *patsel.Selection
	// Schedule is the multi-pattern schedule (nil when stopped earlier).
	Schedule *sched.Schedule
	// Program is the allocated program (nil unless the spec set an Arch
	// and the compile reached allocation).
	Program *alloc.Program
	// Span is the effective span limit: the winner of a sweep, else the
	// defaulted Select.MaxSpan.
	Span int
	// SweptSpans reports that Span was chosen by a span sweep.
	SweptSpans bool
	// CacheHit reports that the result was served from the result cache.
	CacheHit bool
	// Stages holds one timing per executed stage, in execution order.
	Stages []StageTiming
	// Elapsed is the wall-clock cost of the whole compile.
	Elapsed time.Duration
}

// StageElapsed returns the recorded cost of one stage (0 if it did not run).
func (r *Report) StageElapsed(st Stage) time.Duration {
	for _, t := range r.Stages {
		if t.Stage == st {
			return t.Elapsed
		}
	}
	return 0
}

// StageError tags a stage failure with the stage that produced it, so
// callers can tell a census explosion from a scheduling failure without
// string matching. Op refines the stage for sub-steps (e.g. "verify").
type StageError struct {
	Stage Stage
	Op    string // display prefix; defaults to Stage.String()
	Err   error
}

func (e *StageError) Error() string {
	op := e.Op
	if op == "" {
		op = e.Stage.String()
	}
	return op + ": " + e.Err.Error()
}

func (e *StageError) Unwrap() error { return e.Err }

func stageErr(st Stage, err error) error { return &StageError{Stage: st, Err: err} }

// PanicError is a compile that panicked, converted into an error by the
// recover guard in Compile. It exists so serving layers can isolate a
// compiler bug to the one job that hit it — map it to a per-item 500 —
// instead of letting one poisoned graph take down the daemon and every
// neighbouring job in the batch.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("compile panicked: %v", e.Value) }

// Compiler runs Specs through the staged flow — parse → census → select →
// schedule → allocate — consulting its result cache, and enumerating
// graphs of DefaultParallelEnumNodes nodes or more on the parallel
// backend. Construct with NewCompiler; a Compiler is safe for concurrent
// use, and concurrent compiles that miss the cache under one key run the
// flow once (see join).
type Compiler struct {
	cache ResultCache

	mu      sync.Mutex
	flights map[string]chan struct{} // running cacheable compiles by key
}

// NewCompiler returns a compiler serving from opts.Cache (nil: no
// caching). Compile runs one spec; CompileAll fans many out over a
// worker pool.
func NewCompiler(opts Options) *Compiler {
	return &Compiler{cache: opts.Cache}
}

// Cache returns the compiler's result cache, or nil when caching is off.
func (c *Compiler) Cache() ResultCache { return c.cache }

// Compile runs the spec through the staged flow, honouring StopAfter and
// ctx (checked at stage boundaries). On error the report is nil; partial
// results are never written to the cache. A panic anywhere in the flow
// is recovered into a *PanicError — one malformed graph must cost its
// own compile, not the process.
func (c *Compiler) Compile(ctx context.Context, spec Spec) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	start := time.Now()
	rep, err = c.compileSpec(ctx, spec)
	if err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// validateSpec rejects contradictory specs before any work runs.
func validateSpec(spec Spec) error {
	stop := spec.StopAfter
	if stop < StageAll || stop > StageAllocate {
		return fmt.Errorf("spec: unknown stop_after stage %d", int(stop))
	}
	if spec.Graph == nil && spec.Source == "" {
		return errors.New("spec: no graph and no source")
	}
	if spec.Graph != nil && spec.Source != "" {
		return errors.New("spec: both graph and source given")
	}
	if spec.Graph != nil && stop == StageParse {
		return errors.New("spec: stop_after=parse needs expression source, not a graph")
	}
	if stop == StageAllocate && spec.Arch == nil {
		return errors.New("spec: stop_after=allocate needs an arch")
	}
	if spec.Patterns != nil {
		if len(spec.Spans) > 0 {
			return errors.New("spec: explicit patterns and a span sweep are exclusive")
		}
		if stop == StageCensus || stop == StageSelect {
			return fmt.Errorf("spec: explicit patterns skip the %s stage", stop)
		}
	}
	if len(spec.Spans) > 0 && (stop == StageCensus || stop == StageSelect) {
		return fmt.Errorf("spec: a span sweep ranks by schedule length and cannot stop after %s", stop)
	}
	return nil
}

func (c *Compiler) compileSpec(ctx context.Context, spec Spec) (*Report, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	rep := &Report{Name: spec.Label(), Graph: spec.Graph}
	stop := spec.lastStage()

	timed := func(st Stage, span int, f func() error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		elapsed := time.Since(t0)
		merged := false
		for i := range rep.Stages {
			if rep.Stages[i].Stage == st {
				rep.Stages[i].Elapsed += elapsed // aggregate sweep rounds
				merged = true
				break
			}
		}
		if !merged {
			rep.Stages = append(rep.Stages, StageTiming{Stage: st, Elapsed: elapsed})
		}
		if spec.Hook != nil {
			spec.Hook(StageInfo{Stage: st, Elapsed: elapsed, Span: span, Report: rep})
		}
		return nil
	}

	// Parse: lower expression source to the graph.
	if spec.Source != "" {
		err := timed(StageParse, 0, func() error {
			g, err := transform.Compile(spec.Source, spec.SourceOpts)
			if err != nil {
				return stageErr(StageParse, err)
			}
			rep.Graph = g
			return nil
		})
		if err != nil {
			return nil, err
		}
		// A source spec is named after the graph its parse produced.
		parsed := spec
		parsed.Graph = rep.Graph
		rep.Name = parsed.Label()
		if stop == StageParse {
			return rep, nil
		}
	}

	g := rep.Graph
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if spec.Arch != nil {
		if err := spec.Arch.Validate(); err != nil {
			return nil, err
		}
	}
	selCfg := spec.Select.WithDefaults()
	rep.Span = selCfg.MaxSpan
	needSelect := spec.Patterns == nil
	if needSelect && stop >= StageSelect && selCfg.Pdef < 1 {
		return nil, stageErr(StageSelect, fmt.Errorf("patsel: Pdef %d < 1", selCfg.Pdef))
	}

	// Cache lookup. Census-only compiles are never cached (entries hold
	// the selection onward), and CacheBypass specs skip the cache wholesale.
	var key string
	useCache := c.cache != nil && spec.Cache == CacheDefault && stop >= StageSelect && needSelect
	if useCache {
		key = specCacheKey(g, selCfg, spec.Sched, spec.Arch, spec.Spans, stop)
		if e, ok := c.cache.Get(key); ok {
			return rebindReport(rep, e), nil
		}
		if done := c.join(key); done == nil {
			defer c.land(key)
		} else {
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e, ok := c.cache.Get(key); ok {
				return rebindReport(rep, e), nil
			}
			// The leader cached nothing: it failed, panicked or was
			// cancelled. This compile runs on its own.
		}
	}

	switch {
	case !needSelect:
		// Explicit patterns: straight to scheduling.
	case len(spec.Spans) > 0:
		if err := c.sweepSpans(rep, spec, selCfg, timed); err != nil {
			return nil, err
		}
	default:
		if err := c.censusAndSelect(rep, g, selCfg, stop, timed); err != nil {
			return nil, err
		}
	}
	if stop == StageCensus || stop == StageSelect {
		if useCache && stop == StageSelect {
			// Select-only results are cached under their own stop-tagged
			// key, so repeated partial compiles skip the census too.
			c.cache.Put(key, &cacheEntry{
				selection: rep.Selection,
				census:    rep.Census,
				span:      rep.Span,
			})
		}
		return rep, nil
	}

	// Schedule (a span sweep has already scheduled the winner).
	if rep.Schedule == nil {
		ps := spec.Patterns
		if ps == nil {
			ps = rep.Selection.Patterns
		}
		err := timed(StageSchedule, rep.Span, func() error {
			s, err := sched.MultiPattern(g, ps, spec.Sched)
			if err != nil {
				return stageErr(StageSchedule, err)
			}
			rep.Schedule = s
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := rep.Schedule.Verify(); err != nil {
		return nil, &StageError{Stage: StageSchedule, Op: "verify", Err: err}
	}

	if spec.Arch != nil && stop >= StageAllocate {
		err := timed(StageAllocate, rep.Span, func() error {
			prog, err := alloc.Allocate(rep.Schedule, *spec.Arch)
			if err != nil {
				return stageErr(StageAllocate, err)
			}
			rep.Program = prog
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	if useCache {
		c.cache.Put(key, &cacheEntry{
			selection: rep.Selection,
			schedule:  rep.Schedule,
			program:   rep.Program,
			census:    rep.Census,
			span:      rep.Span,
			swept:     rep.SweptSpans,
		})
	}
	return rep, nil
}

// join makes concurrent cache misses of one key compile once. The first
// caller leads: join returns nil, and the caller runs the flow, caches
// its result and calls land. Each later caller gets a channel that
// closes when the leader lands; it waits on it under its own context,
// then reads the cache like any hit.
func (c *Compiler) join(key string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if done, ok := c.flights[key]; ok {
		return done
	}
	if c.flights == nil {
		c.flights = make(map[string]chan struct{})
	}
	c.flights[key] = make(chan struct{})
	return nil
}

// land ends the leader's compile of key, waking its followers.
func (c *Compiler) land(key string) {
	c.mu.Lock()
	done := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	close(done)
}

// censusAndSelect runs the census and (unless stopped) the selection for a
// single span limit.
func (c *Compiler) censusAndSelect(rep *Report, g *dfg.Graph, selCfg patsel.Config, stop Stage, timed func(Stage, int, func() error) error) error {
	err := timed(StageCensus, selCfg.MaxSpan, func() error {
		census, err := enumerate(g, antichain.Config{MaxSize: selCfg.C, MaxSpan: selCfg.MaxSpan})
		if err != nil {
			return stageErr(StageCensus, err)
		}
		rep.Enumerated = census
		rep.Census = summarize(census, selCfg.MaxSpan)
		return nil
	})
	if err != nil || stop == StageCensus {
		return err
	}
	return timed(StageSelect, selCfg.MaxSpan, func() error {
		sel, err := patsel.SelectFrom(g, rep.Enumerated, selCfg)
		if err != nil {
			return stageErr(StageSelect, err)
		}
		rep.Selection = sel
		return nil
	})
}

// sweepSpans reproduces patsel.SelectBestSpan inside the staged flow: one
// census + selection + schedule per span limit, keeping the candidate with
// the shortest schedule (ties to the earlier listed limit). The hook sees
// every round; the report keeps the winner.
func (c *Compiler) sweepSpans(rep *Report, spec Spec, selCfg patsel.Config, timed func(Stage, int, func() error) error) error {
	var best *Report
	for _, span := range spec.Spans {
		cfg := selCfg
		cfg.MaxSpan = span
		rep.Span = span
		rep.Enumerated, rep.Census, rep.Selection, rep.Schedule = nil, nil, nil, nil
		if err := c.censusAndSelect(rep, rep.Graph, cfg, StageSchedule, timed); err != nil {
			return fmt.Errorf("span %d: %w", span, err)
		}
		err := timed(StageSchedule, span, func() error {
			s, err := sched.MultiPattern(rep.Graph, rep.Selection.Patterns, spec.Sched)
			if err != nil {
				return stageErr(StageSchedule, err)
			}
			rep.Schedule = s
			return nil
		})
		if err != nil {
			return fmt.Errorf("span %d: %w", span, err)
		}
		if best == nil || rep.Schedule.Length() < best.Schedule.Length() {
			snap := *rep
			best = &snap
		}
	}
	rep.Enumerated, rep.Census, rep.Selection, rep.Schedule = best.Enumerated, best.Census, best.Selection, best.Schedule
	rep.Span, rep.SweptSpans = best.Span, true
	return nil
}

// enumerate delegates graphs of DefaultParallelEnumNodes nodes or more to
// the parallel backend, on a GOMAXPROCS pool.
func enumerate(g *dfg.Graph, acfg antichain.Config) (*antichain.Result, error) {
	if g.N() >= DefaultParallelEnumNodes {
		return antichain.EnumerateParallel(g, acfg, 0)
	}
	return antichain.Enumerate(g, acfg)
}

func summarize(census *antichain.Result, span int) *CensusSummary {
	return &CensusSummary{Antichains: census.Total(), Classes: len(census.Classes), Span: span}
}

// specCacheKey addresses a result by graph content and the full effective
// configuration, including the span sweep and stop stage — a select-only
// compile must never answer (or be answered by) a full compile.
//
// The key is built with strconv appends rather than fmt %+v: it is
// computed on every cacheable compile, and reflection-driven formatting
// was a measurable slice of the daemon's hot path. Every field of the
// three config structs is spelled out, so adding a field without
// extending the key fails loudly in review, not silently in the cache.
func specCacheKey(g *dfg.Graph, sel patsel.Config, so sched.Options, arch *alloc.Arch, spans []int, stop Stage) string {
	var scratch [192]byte // on the stack: only the returned string escapes
	b := scratch[:0]
	b = append(b, g.Fingerprint()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sel.C), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(sel.Pdef), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(sel.MaxSpan), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, sel.Epsilon, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, sel.Alpha, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendBool(b, sel.DisableBalance)
	b = append(b, ',')
	b = strconv.AppendBool(b, sel.DisableSizeBonus)
	b = append(b, ',')
	b = strconv.AppendBool(b, sel.DisableColorCondition)
	b = append(b, ',')
	b = strconv.AppendBool(b, sel.DisableSubpatternDeletion)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(so.Priority), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(so.TieBreak), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, so.Seed, 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, so.KeepTrace)
	b = append(b, ',')
	b = strconv.AppendInt(b, so.SwitchPenalty, 10)
	b = append(b, '|')
	if arch == nil {
		b = append(b, '-')
	} else {
		b = strconv.AppendInt(b, int64(arch.ALUs), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(arch.RegsPerALU), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(arch.Memories), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(arch.MemWords), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(arch.Buses), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(arch.MaxPatterns), 10)
	}
	b = append(b, '|')
	if len(spans) == 0 {
		b = append(b, '-')
	} else {
		for i, s := range spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(stop), 10)
	return string(b)
}

// rebindReport adapts a cached entry to the requesting spec: the cached
// schedule and program may reference a different (content-identical)
// *Graph, so shallow copies are pointed at the spec's own graph. Node ids
// agree by construction — the fingerprint covers the labelled structure.
func rebindReport(rep *Report, e *cacheEntry) *Report {
	rep.CacheHit = true
	rep.Selection = e.selection
	rep.Census = e.census
	rep.Span, rep.SweptSpans = e.span, e.swept
	if e.schedule != nil {
		s := *e.schedule
		s.Graph = rep.Graph
		rep.Schedule = &s
	}
	if e.program != nil {
		prog := *e.program
		prog.Graph = rep.Graph
		prog.Schedule = rep.Schedule
		rep.Program = &prog
	}
	return rep
}
