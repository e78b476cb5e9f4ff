package mpsched

import (
	"context"
	"errors"

	"mpsched/internal/pipeline"
)

// The staged compiler API: one spec in, one report out. Compiler is the
// single way to run the paper's flow — census (§5.1) → selection (§5.2) →
// multi-pattern scheduling (§4) → allocation — with per-stage timings,
// stage hooks, partial compiles (StopAfter) and result caching. Every
// other entry point (the legacy one-call helpers below, the batch
// CompileAll, the mpschedd daemon) routes through it.
type (
	// Compiler runs CompileSpecs through the staged flow. Construct with
	// NewCompiler; safe for concurrent use.
	Compiler = pipeline.Compiler
	// CompileSpec is one complete compilation problem: graph (or
	// expression source), per-stage configuration, span sweep, stop
	// stage, cache policy and stage hook.
	CompileSpec = pipeline.Spec
	// CompileSpecOption customises a CompileSpec under construction.
	CompileSpecOption = pipeline.SpecOption
	// CompileReport carries everything a compile produced: artifacts up
	// to the stop stage, the census summary, the effective span, cache
	// hit status and per-stage timings.
	CompileReport = pipeline.Report
	// CompileStage names one step of the staged flow.
	CompileStage = pipeline.Stage
	// StageTiming is the wall-clock cost of one completed stage.
	StageTiming = pipeline.StageTiming
	// StageInfo is the argument to a StageHook.
	StageInfo = pipeline.StageInfo
	// StageHook observes stage completions (timings, intermediate
	// results) during a compile.
	StageHook = pipeline.StageHook
	// CensusSummary condenses the antichain census for reports.
	CensusSummary = pipeline.CensusSummary
	// CompileCachePolicy selects a spec's cache interaction.
	CompileCachePolicy = pipeline.CachePolicy
	// StageError tags a compile failure with the stage that produced it.
	StageError = pipeline.StageError
)

// Stages of the compile flow, in execution order. StageAll (the zero
// value) means "run everything the spec asks for".
const (
	StageAll      = pipeline.StageAll
	StageParse    = pipeline.StageParse
	StageCensus   = pipeline.StageCensus
	StageSelect   = pipeline.StageSelect
	StageSchedule = pipeline.StageSchedule
	StageAllocate = pipeline.StageAllocate
)

// Cache policies for CompileSpec.Cache.
const (
	CacheDefault = pipeline.CacheDefault
	CacheBypass  = pipeline.CacheBypass
)

// NewCompiler returns a staged compiler. PipelineOptions.Cache enables
// result caching across compiles; the zero value compiles without a
// cache. Graphs of 48 nodes or more are enumerated on the parallel
// backend. Compile runs one spec; CompileAll fans many out over a worker
// pool, one report or error per spec:
//
//	reps, errs := mpsched.NewCompiler(mpsched.PipelineOptions{}).
//	        CompileAll(ctx, specs, 0) // 0 workers: GOMAXPROCS
func NewCompiler(opts PipelineOptions) *Compiler { return pipeline.NewCompiler(opts) }

// NewCompileSpec returns a spec compiling g, customised by opts:
//
//	rep, err := compiler.Compile(ctx, mpsched.NewCompileSpec(g,
//	        mpsched.WithSelect(mpsched.SelectConfig{Pdef: 4}),
//	        mpsched.WithStopAfter(mpsched.StageSelect)))
func NewCompileSpec(g *Graph, opts ...CompileSpecOption) CompileSpec {
	return pipeline.NewSpec(g, opts...)
}

// NewSourceCompileSpec returns a spec whose graph is lowered from
// expression-language source by the parse stage (see WithSourceOptions).
func NewSourceCompileSpec(src string, opts ...CompileSpecOption) CompileSpec {
	return pipeline.NewSourceSpec(src, opts...)
}

// ParseCompileStage maps a stage name ("select", "schedule", ...) to its
// CompileStage; the empty string parses as StageAll.
func ParseCompileStage(name string) (CompileStage, error) { return pipeline.ParseStage(name) }

// Spec options, re-exported so specs read naturally at the facade:
//
//	mpsched.NewCompileSpec(g, mpsched.WithSelect(cfg), mpsched.WithArch(arch))
var (
	// WithName labels the spec in reports and logs.
	WithName = pipeline.WithName
	// WithSelect sets the pattern selection configuration.
	WithSelect = pipeline.WithSelect
	// WithSchedule sets the list scheduler options.
	WithSchedule = pipeline.WithSchedule
	// WithPatterns schedules against an explicit pattern set, skipping
	// census and selection.
	WithPatterns = pipeline.WithPatterns
	// WithArch requests allocation onto an architecture after scheduling.
	WithArch = pipeline.WithArch
	// WithSpans sweeps span limits and keeps the best schedule.
	WithSpans = pipeline.WithSpans
	// WithStopAfter ends the compile after the named stage.
	WithStopAfter = pipeline.WithStopAfter
	// WithSourceOptions configures the parse stage for source specs.
	WithSourceOptions = pipeline.WithSourceOptions
	// WithStageHook installs a per-stage observer.
	WithStageHook = pipeline.WithStageHook
	// WithoutCache makes the spec bypass the compiler's result cache.
	WithoutCache = pipeline.WithoutCache
)

// facadeCompiler backs the legacy one-call helpers (SelectPatterns,
// Schedule, Compile, ...): no cache, default enumeration backend.
var facadeCompiler = pipeline.NewCompiler(pipeline.Options{})

// facadeCompile runs a spec through the shared facade compiler, unwrapping
// a top-level stage tag so the legacy helpers keep returning the
// underlying package errors ("patsel: ...", "sched: ...") they always
// returned. Only a direct *StageError is unwrapped: a span-sweep failure
// arrives wrapped as "span N: ..." and must keep naming the failing span.
func facadeCompile(spec CompileSpec) (*CompileReport, error) {
	rep, err := facadeCompiler.Compile(context.Background(), spec)
	if err != nil {
		var se *StageError
		if errors.As(err, &se) && err.Error() == se.Error() {
			return nil, se.Err
		}
		return nil, err
	}
	return rep, nil
}
