// Package pipeline is the compilation engine behind every front end: the
// staged Compiler (parse → census → select → schedule → allocate, with
// per-stage timings, stage hooks, partial compiles and a content-addressed
// result cache) and the batch Pipeline that fans many jobs out across a
// bounded worker pool with per-job error isolation.
//
// This is the serving layer the ROADMAP's production goal asks for: one
// CompileSpec goes in, one CompileReport comes out, and every caller — the
// CLIs, the examples, the mpschedd daemon — routes through the same staged
// flow, so repeated workloads are answered from the cache without touching
// the enumeration engine at all.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpsched/internal/alloc"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/sched"
)

// Job is one batch compilation request: a graph plus the configuration of
// every stage. Zero-valued Select fields take the paper's defaults where
// one exists (C, span, ε, α — see patsel.Config); Select.Pdef has no
// default and must be ≥ 1. A zero Sched is the paper's scheduler
// configuration. Job is the batch-oriented face of Spec — Spec() converts.
type Job struct {
	// Name labels the job in results and reports; empty falls back to the
	// graph's name.
	Name string
	// Graph is the data-flow graph to compile. Jobs may freely share a
	// *Graph: its lazy caches are goroutine-safe.
	Graph *dfg.Graph
	// Select parameterises pattern selection (zero value = paper defaults).
	Select patsel.Config
	// Sched parameterises the multi-pattern list scheduler.
	Sched sched.Options
	// Arch, when non-nil, makes the job run allocation after scheduling,
	// producing a Program executable on the Montium simulator.
	Arch *alloc.Arch
	// Spans, when non-empty, sweeps these span limits and keeps the
	// candidate whose schedule is shortest (see Spec.Spans).
	Spans []int
	// StopAfter ends the compile after the named stage; StageAll (the
	// zero value) runs everything the job asks for.
	StopAfter Stage
	// Hook, when non-nil, observes each stage as it completes (see
	// Spec.Hook). The hook is not part of the cache identity: the
	// mpschedd server hangs its per-request tracing here without
	// fragmenting the result cache — but that also means a cache hit
	// fires no stage hooks, since no stages ran.
	Hook StageHook
}

// Label returns the job's display name. A span sweep is part of the name
// — two jobs differing only by their swept spans must stay
// distinguishable in logs and metrics.
func (j Job) Label() string {
	name := j.Name
	if name == "" {
		if j.Graph != nil {
			name = j.Graph.Name
		}
		if name == "" {
			name = "?"
		}
	}
	if len(j.Spans) > 0 {
		parts := make([]string, len(j.Spans))
		for i, s := range j.Spans {
			parts[i] = strconv.Itoa(s)
		}
		name += "[spans=" + strings.Join(parts, ",") + "]"
	}
	return name
}

// Spec converts the job to the staged compiler's spec type.
func (j Job) Spec() Spec {
	return Spec{
		Name:      j.Name,
		Graph:     j.Graph,
		Select:    j.Select,
		Sched:     j.Sched,
		Arch:      j.Arch,
		Spans:     j.Spans,
		StopAfter: j.StopAfter,
		Hook:      j.Hook,
	}
}

// Result is the outcome of one job. Either Err is non-nil, or Report is
// set; Selection/Schedule/Program mirror the report's artifacts for the
// common full-compile case.
type Result struct {
	Job       Job
	Selection *patsel.Selection
	Schedule  *sched.Schedule
	Program   *alloc.Program
	// Report is the staged compiler's full output (timings, census
	// summary, effective span); nil when Err is set.
	Report *Report
	Err    error
	// CacheHit reports that the result was served from the cache, skipping
	// enumeration, selection and scheduling.
	CacheHit bool
	// Elapsed is the wall-clock cost of this job.
	Elapsed time.Duration
}

// DefaultParallelEnumNodes is the graph size at which enumeration switches
// to the worker-pool backend. Below it the sequential enumerator wins: the
// fan-out costs more than the subtree work saves.
const DefaultParallelEnumNodes = 48

// Options configures a Compiler and the Pipeline built on it.
type Options struct {
	// Workers bounds the job-level worker pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves repeated (graph, config) jobs without
	// recompiling. Share one cache across batches to stay warm. Use a
	// *Cache for single-consumer batches and a *ShardedCache when many
	// goroutines hit the pipeline concurrently (the mpschedd server).
	Cache ResultCache
	// ParallelEnumNodes is the node count at which a graph's antichain
	// enumeration uses antichain.EnumerateParallel instead of the
	// sequential enumerator. 0 means DefaultParallelEnumNodes; negative
	// disables the parallel backend.
	ParallelEnumNodes int
	// EnumWorkers bounds the per-graph enumeration pool; ≤ 0 means
	// GOMAXPROCS. Only consulted when the parallel backend runs.
	EnumWorkers int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ParallelEnumNodes == 0 {
		o.ParallelEnumNodes = DefaultParallelEnumNodes
	}
	// A typed-nil *Cache (or *ShardedCache) boxed into the interface must
	// mean "no caching", as it did when the field was a concrete pointer —
	// not a nil-receiver panic on first lookup.
	switch c := o.Cache.(type) {
	case *Cache:
		if c == nil {
			o.Cache = nil
		}
	case *ShardedCache:
		if c == nil {
			o.Cache = nil
		}
	}
	return o
}

// Pipeline executes batches of compilation jobs over the staged Compiler.
// Construct with New; a Pipeline is safe for concurrent use.
type Pipeline struct {
	c *Compiler
}

// New returns a pipeline with the given options.
func New(opts Options) *Pipeline {
	return &Pipeline{c: NewCompiler(opts)}
}

// zeroCompiler backs zero-valued Pipelines constructed without New.
var zeroCompiler = NewCompiler(Options{})

// compiler returns the pipeline's compiler, tolerating a zero-valued
// Pipeline constructed without New.
func (p *Pipeline) compiler() *Compiler {
	if p.c == nil {
		return zeroCompiler
	}
	return p.c
}

// Compiler exposes the staged compiler the pipeline runs jobs through.
func (p *Pipeline) Compiler() *Compiler { return p.compiler() }

// Cache returns the pipeline's cache, or nil when caching is off.
func (p *Pipeline) Cache() ResultCache { return p.compiler().Cache() }

// Run compiles every job, fanning the batch out over the worker pool.
// Results are positionally aligned with jobs; one job failing never
// aborts the others.
func Run(jobs []Job, opts Options) []Result {
	return New(opts).Run(jobs)
}

// Run compiles every job across the worker pool, returning one Result per
// job in input order.
func (p *Pipeline) Run(jobs []Job) []Result {
	return p.RunContext(context.Background(), jobs)
}

// RunContext is Run with cancellation: when ctx is cancelled, in-flight
// jobs stop at their next stage boundary and every not-yet-started job's
// Result carries ctx's error. The mpschedd server threads each request's
// context through here so a disconnected client stops costing CPU.
func (p *Pipeline) RunContext(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	workers := p.compiler().opts.Workers // withDefaults guarantees > 0
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.CompileContext(ctx, jobs[i])
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark everything not handed to a worker; in-flight jobs
			// notice the cancellation themselves.
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Job: jobs[j], Err: fmt.Errorf("pipeline: job %q: %w", jobs[j].Label(), ctx.Err())}
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// Compile runs one job synchronously (consulting the cache, if any). Used
// by Run's workers and available directly for single-request serving;
// concurrent Compile calls may share a *Graph — its lazy caches are
// goroutine-safe.
func (p *Pipeline) Compile(job Job) Result {
	return p.CompileContext(context.Background(), job)
}

// CompileContext is Compile with cancellation. The check runs at stage
// boundaries (before parsing, enumeration, selection, scheduling and
// allocation) — a cancelled job stops before its next expensive stage
// rather than mid-stage.
func (p *Pipeline) CompileContext(ctx context.Context, job Job) Result {
	start := time.Now()
	res := Result{Job: job}
	if job.Graph == nil {
		res.Err = fmt.Errorf("pipeline: job %q has no graph", job.Label())
		res.Elapsed = time.Since(start)
		return res
	}
	rep, err := p.compiler().Compile(ctx, job.Spec())
	if err != nil {
		res.Err = fmt.Errorf("pipeline: job %q: %w", job.Label(), err)
		res.Elapsed = time.Since(start)
		return res
	}
	res.Report = rep
	res.Selection = rep.Selection
	res.Schedule = rep.Schedule
	res.Program = rep.Program
	res.CacheHit = rep.CacheHit
	res.Elapsed = time.Since(start)
	return res
}
