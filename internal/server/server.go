// Package server is the compile-as-a-service layer: an HTTP front end
// over internal/pipeline, serving the staged pattern-selection compiler
// to many concurrent clients. It adds what the compiler does not have —
// admission control, per-request cancellation, async jobs, batching,
// and metrics — while every actual compile goes through the same staged
// engine the CLIs use, including partial compiles (stop_after), span
// sweeps (spans) and per-stage timings on the wire.
//
// Endpoints:
//
//	POST /v1/compile      synchronous compile of one graph
//	POST /v1/batch        N compiles in one round trip, results streamed
//	                      in completion order (see batch.go)
//	POST /v1/jobs         enqueue an async compile, returns a job id
//	GET  /v1/jobs/{id}    job status and, when done, the result
//	GET  /v1/workloads    generator catalog
//	GET  /healthz         liveness + queue depth
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/pprof/*   profiling (only with Options.EnablePprof)
//
// Compile and batch bodies are codec-pluggable: the request codec is
// picked from Content-Type (no header = JSON, so pre-codec clients and
// plain curl are unchanged) and the response codec from Accept (falling
// back to the request codec). internal/wire is the codec registry;
// job-control and introspection endpoints, like errors, always speak
// JSON. See wire.CompileRequest for the request shape and
// internal/dfg/io.go for the graph wire format.
//
// The HTTP edge is shared with the fleet router (internal/fleet): routes
// are counted, timed and traced by obs.Edge, requests are read (decoded,
// deadlines merged) and errors written by internal/wire, and the
// /metrics families are declared on an obs.Registry (metrics.go). What
// stays here is the daemon's own: the panic perimeter, admission,
// shedding and the compile path.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpsched/internal/faults"
	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
	"mpsched/internal/resilience"
	"mpsched/internal/wire"
)

// Options configures a Server. The zero value serves with sensible
// defaults for every field.
type Options struct {
	// QueueWorkers is how many async jobs compile concurrently; ≤ 0 means
	// GOMAXPROCS.
	QueueWorkers int
	// QueueDepth bounds how many async jobs may wait beyond the ones
	// running; admission fails with 429 once it is full. ≤ 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// MaxBodyBytes bounds request bodies; ≤ 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxSyncNodes bounds graph size on the synchronous /v1/compile
	// endpoint — larger graphs must go through the job queue so slow
	// compiles cannot pin HTTP handler goroutines. ≤ 0 means
	// DefaultMaxSyncNodes.
	MaxSyncNodes int
	// CacheEntries sizes the sharded result cache; 0 means the pipeline
	// default, negative disables caching.
	CacheEntries int
	// CacheShards sets the shard count; ≤ 0 means store.DefaultShards().
	CacheShards int
	// Cache, when non-nil, is the result store to serve compiles from and
	// overrides CacheEntries/CacheShards — this is how mpschedd injects a
	// persistent tiered store (pipeline.NewTieredCache) for warm restarts.
	// The caller keeps ownership: close it after the server drains.
	Cache pipeline.ResultCache
	// MaxStoredJobs caps retained terminal jobs; ≤ 0 means
	// DefaultMaxStoredJobs.
	MaxStoredJobs int
	// MaxBatchJobs caps how many jobs one /v1/batch envelope may carry;
	// ≤ 0 means DefaultMaxBatchJobs. (Total in-flight batch jobs across
	// envelopes are separately bounded by QueueDepth — see batch.go.)
	MaxBatchJobs int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for CPU and
	// heap profiling of a live daemon. Off by default: the profile
	// endpoints expose internals and cost CPU, so they are opt-in
	// (mpschedd -pprof) and belong behind the operator's firewall.
	EnablePprof bool
	// TraceBuffer sizes the ring of recent request traces served at
	// /debug/traces; ≤ 0 means DefaultTraceBuffer. Tracing itself is
	// always on for the compile-path endpoints — the per-request cost is
	// a handful of clock reads and one ring insert.
	TraceBuffer int
	// SlowTrace is the always-on slow-trace log threshold: any traced
	// request at or over it logs its full span breakdown via slog. 0
	// means DefaultSlowTrace; negative disables the log.
	SlowTrace time.Duration
	// Logger receives the slow-trace log; nil means slog.Default().
	Logger *slog.Logger
	// Faults, when non-nil, injects chaos into the /v1 routes and the
	// compile path (see internal/faults and `mpschedd -chaos`). Nil — the
	// default — injects nothing and costs nothing.
	Faults *faults.Injector
	// ShedThreshold is the queue-wait p99 at which brownout shedding
	// starts: past it async submissions are rejected, past twice it sync
	// compiles and batches too (health checks never shed). 0 means
	// DefaultShedThreshold; negative disables shedding.
	ShedThreshold time.Duration
	// ShedWindow is the sliding window the shed signal is computed over;
	// ≤ 0 means resilience.DefaultShedWindow.
	ShedWindow time.Duration
}

// Defaults for Options' zero values.
const (
	DefaultQueueDepth    = 256
	DefaultMaxBodyBytes  = 8 << 20 // 8 MiB of graph JSON is ~10⁵ nodes
	DefaultMaxSyncNodes  = 2048
	DefaultMaxStoredJobs = 4096
	DefaultMaxBatchJobs  = 256
	// DefaultTraceBuffer is deliberately modest: the ring pins every
	// retained trace's span list (a batch envelope holds ~2 spans per
	// job), and that memory is live for the garbage collector to mark on
	// every cycle. 64 traces keeps the always-on cost low; raise it via
	// -trace-buffer when debugging needs more history.
	DefaultTraceBuffer = 64
	DefaultSlowTrace   = time.Second
	// DefaultShedThreshold is deliberately deep: a queue-wait p99 of two
	// seconds means async clients already wait ~2000× a typical compile,
	// so shedding is strictly better than queueing further into the
	// brownout. Operators tune it down via -shed-wait.
	DefaultShedThreshold = 2 * time.Second
)

func (o Options) withDefaults() Options {
	if o.QueueWorkers <= 0 {
		o.QueueWorkers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxSyncNodes <= 0 {
		o.MaxSyncNodes = DefaultMaxSyncNodes
	}
	if o.MaxStoredJobs <= 0 {
		o.MaxStoredJobs = DefaultMaxStoredJobs
	}
	if o.MaxBatchJobs <= 0 {
		o.MaxBatchJobs = DefaultMaxBatchJobs
	}
	if o.TraceBuffer <= 0 {
		o.TraceBuffer = DefaultTraceBuffer
	}
	if o.SlowTrace == 0 {
		o.SlowTrace = DefaultSlowTrace
	}
	if o.ShedThreshold == 0 {
		o.ShedThreshold = DefaultShedThreshold
	}
	return o
}

// Server is the compile service. Construct with New; it is safe for
// concurrent use and is an http.Handler.
type Server struct {
	opts     Options
	compiler *pipeline.Compiler
	cache    pipeline.ResultCache // nil when caching is disabled
	metrics  *metrics
	store    *jobStore
	mux      *http.ServeMux
	// handler is what ServeHTTP dispatches to: the mux, wrapped by the
	// fault-injection middleware when Options.Faults is set.
	handler http.Handler
	// shed is the brownout controller, fed by async queue waits; nil when
	// shedding is disabled (negative ShedThreshold).
	shed *resilience.Shedder

	// batchSem bounds in-flight batch jobs across all /v1/batch envelopes
	// at QueueDepth; admission is a per-job try-acquire, so an oversized
	// envelope gets deterministic per-job 429s instead of an envelope
	// failure (see batch.go).
	batchSem chan struct{}
	// workloads resolves workload specs only, so a storm of
	// "random:seed=1,n=64" requests generates (and fingerprints) the graph
	// once, not per request. Graphs are immutable after construction and
	// their lazy attribute caches are goroutine-safe, so sharing one
	// *Graph across concurrent compiles is sound — and makes the
	// pipeline's result cache hit without re-hashing.
	workloads *wire.GraphStore
	// resps memoises the schedule-derived slice of CompileResponse per
	// cached result (see toResponse): every result-cache hit gets a fresh
	// schedule copy, but the copies share the cached entry's slices, and
	// the memo is keyed on one of them (respKey). Pattern formatting, the
	// lower bound and utilization are then computed once per distinct
	// result, not per request.
	resps respCache
	// batchWork feeds the persistent batch compile workers. A fixed pool
	// instead of a goroutine per job: batch jobs are often sub-millisecond
	// cache hits, and spawning a fresh goroutine each time pays stack
	// growth (newstack/copystack) that long-lived workers amortise away.
	batchWork chan batchTask

	queue   chan *asyncJob
	wg      sync.WaitGroup // queue workers
	baseCtx context.Context
	cancel  context.CancelFunc
	drainCh chan struct{}
	// drainMu orders admission against Drain: submitters hold the read
	// lock across their draining-check + enqueue, Drain flips draining
	// under the write lock. Once Drain holds the write lock, every
	// in-flight enqueue has completed and every later submitter sees
	// draining — no job can slip into the queue after the workers leave.
	drainMu  sync.RWMutex
	draining atomic.Bool
	// drainDone closes when the first Drain call has fully completed, so
	// concurrent Drain callers block until the server is actually drained
	// (matching http.Server.Shutdown semantics) instead of returning early.
	drainDone chan struct{}
}

// New returns a serving-ready Server with its queue workers running.
func New(opts Options) *Server {
	return newServer(opts, true)
}

// newServer is New with worker startup controllable, so tests can observe
// admission control on a queue nothing drains.
func newServer(opts Options, startWorkers bool) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		store:     newJobStore(opts.MaxStoredJobs),
		queue:     make(chan *asyncJob, opts.QueueDepth),
		batchSem:  make(chan struct{}, opts.QueueDepth),
		workloads: wire.NewGraphStore(),
		drainCh:   make(chan struct{}),
		drainDone: make(chan struct{}),
	}
	switch {
	case opts.Cache != nil:
		s.cache = opts.Cache
	case opts.CacheEntries >= 0:
		s.cache = pipeline.NewShardedCache(opts.CacheEntries, opts.CacheShards)
	}
	s.compiler = pipeline.NewCompiler(pipeline.Options{Cache: s.cache})
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.shed = resilience.NewShedder(opts.ShedThreshold, opts.ShedWindow)

	s.metrics = newMetrics(s)

	// Every route runs inside the panic perimeter (safe). The compile
	// path is traced: each request's trace lands in the ring behind
	// /debug/traces and, when slow, in the slow-trace log.
	s.mux = http.NewServeMux()
	edge := obs.NewEdge(s.mux, obs.NewRecorder(opts.TraceBuffer, opts.SlowTrace, opts.Logger),
		s.metrics.requests, s.metrics.inflightRequests,
		func(route, codec string) *obs.LockedHistogram { return s.metrics.requestSeconds.With(route, codec) })
	edge.Route("POST /v1/compile", true, s.safe(s.handleCompile))
	edge.Route("POST /v1/batch", true, s.safe(s.handleBatch))
	edge.Route("POST /v1/jobs", true, s.safe(s.handleSubmitJob))
	edge.Route("GET /v1/jobs/{id}", false, s.safe(s.handleGetJob))
	edge.Route("GET /v1/workloads", false, s.safe(wire.ServeWorkloads))
	edge.Route("GET /healthz", false, s.safe(s.handleHealthz))
	edge.Route("GET /metrics", false, s.safe(s.metrics.reg.ServeHTTP))
	if opts.EnablePprof {
		// Registered directly on the mux (not via route) so the debug
		// subtree stays out of the request metrics. pprof.Index also
		// dispatches the named runtime profiles (heap, goroutine, ...).
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		// Symbol takes POST too: `go tool pprof` POSTs hex PCs to it.
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = opts.Faults.Middleware(s.mux) // nil injector returns the mux unchanged

	if startWorkers {
		for i := 0; i < opts.QueueWorkers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	// Batch workers run regardless of startWorkers — /v1/batch must serve
	// even on test servers with the async queue frozen. They exit with
	// baseCtx (Drain); handleBatch falls back per job when they are gone.
	s.batchWork = make(chan batchTask, opts.QueueDepth)
	for i := 0; i < batchWorkers(opts.QueueWorkers); i++ {
		go func() {
			for {
				select {
				case t := <-s.batchWork:
					t.run(t.k)
				case <-s.baseCtx.Done():
					return
				}
			}
		}()
	}
	return s
}

// batchWorkers sizes the batch compile pool: enough headroom over the
// CPU count that a few long compiles don't starve cheap cache hits
// queued behind them, small enough that worker stacks stay warm.
func batchWorkers(queueWorkers int) int {
	if n := 4 * queueWorkers; n > 8 {
		return n
	}
	return 8
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Cache exposes the result cache (nil when disabled) for stats reporting.
func (s *Server) Cache() pipeline.ResultCache { return s.cache }

// worker pulls async jobs until drain: after drainCh closes, it empties
// the queue and exits, so SIGTERM finishes accepted work instead of
// dropping it.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.process(j)
		case <-s.drainCh:
			for {
				select {
				case j := <-s.queue:
					s.process(j)
				default:
					return
				}
			}
		}
	}
}

// process runs one async job through the compiler under the server's base
// context, so Drain's deadline can cut in-flight compiles short. Its
// queue-wait and compile spans append to the submit request's trace —
// post-finish appends are exactly what obs.Trace allows for this.
func (s *Server) process(j *asyncJob) {
	if !j.submitted.IsZero() {
		wait := time.Since(j.submitted)
		s.metrics.queueWait.Record(wait)
		s.shed.Observe(wait)
		j.trace.Observe("queue_wait", -1, j.submitted, wait)
	}
	// A job whose deadline passed while it queued fails without compiling:
	// its client stopped waiting, so the cycles belong to live jobs.
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		s.metrics.deadlineExpired.Add(1)
		s.metrics.jobsFailed.Add(1)
		j.finish(nil, errors.New("deadline expired while the job was queued"))
		return
	}
	ctx := s.baseCtx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	j.setRunning()
	spec := j.spec
	spec.Hook = s.stageHook(j.trace, -1)
	rep, err := s.compileJob(ctx, j.trace, spec)
	if err != nil {
		s.metrics.jobsFailed.Add(1)
		j.finish(nil, err)
		return
	}
	s.metrics.jobsCompleted.Add(1)
	resp := s.toResponse(rep, spec.StopAfter)
	resp.TraceID = j.traceID
	j.finish(resp, nil)
}

// Drain gracefully shuts the queue down: admission stops, queued and
// running jobs finish, workers exit. If ctx expires first, in-flight
// compiles are cancelled at their next stage boundary and any jobs still
// queued are failed with a shutdown error.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining.Swap(true)
	s.drainMu.Unlock()
	if already {
		// Another Drain is in progress (or finished): wait for it so a
		// caller never proceeds while workers are still running jobs.
		select {
		case <-s.drainDone:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(s.drainDone)
	// Holding the write lock above ordered this after every in-flight
	// enqueue, and the workers are still running here — each accepted
	// job gets picked up before the drain sweep below lets them exit.
	close(s.drainCh)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // stop in-flight compiles at the next stage boundary
		<-done
		err = ctx.Err()
	}
	s.cancel()
	// Workers are gone and admission is ordered before the drainCh close,
	// so the queue should be empty — this sweep is defensive: if anything
	// is left (e.g. a worker cut short by the deadline above re-queuing),
	// fail it so no client waits on a job nothing will run.
	for {
		select {
		case j := <-s.queue:
			s.metrics.jobsFailed.Add(1)
			j.finish(nil, errors.New("server: shut down before the job ran"))
		default:
			return err
		}
	}
}

// ---- handlers ----

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.shedSyncWork(w) {
		return
	}
	tr := obs.FromContext(r.Context())
	spec, budget, ok := s.decodeCompile(w, r, tr)
	if !ok {
		return
	}
	if n := spec.Graph.N(); n > s.opts.MaxSyncNodes {
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph has %d nodes, over the synchronous limit %d; submit it to POST /v1/jobs", n, s.opts.MaxSyncNodes))
		return
	}

	cctx, cancel := withBudget(r.Context(), budget)
	defer cancel()
	spec.Hook = s.stageHook(tr, -1)
	rep, err := s.compileJob(cctx, tr, spec)
	if err != nil {
		wire.WriteError(w, s.compileFailureStatus(r.Context(), cctx, err), err)
		return
	}
	resp := s.toResponse(rep, spec.StopAfter)
	resp.TraceID = tr.ID()
	et := tr.Begin("encode")
	wire.WriteResponse(w, r, resp)
	et.End()
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.shedAsyncWork(w) {
		return
	}
	tr := obs.FromContext(r.Context())
	spec, budget, ok := s.decodeCompile(w, r, tr)
	if !ok {
		return
	}
	// The job keeps the submit request's trace: its queue-wait and
	// compile spans append to it as the job executes, long after this
	// response went out — /debug/traces/{id} shows them as they land.
	j := &asyncJob{id: newJobID(), spec: spec, status: JobQueued, trace: tr, traceID: tr.ID()}
	if budget > 0 {
		// The budget freezes into an absolute deadline at admission; it
		// keeps counting down while the job queues, which is the point —
		// the client's clock does not stop for our queue.
		j.deadline = time.Now().Add(budget)
	}
	at := tr.Begin("admit")
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		at.End()
		s.metrics.jobsRejected.Add(1)
		wire.WriteRetryLater(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	accepted := false
	j.submitted = time.Now()
	select {
	case s.queue <- j:
		accepted = true
	default:
	}
	s.drainMu.RUnlock()
	at.End()
	if !accepted {
		s.metrics.jobsRejected.Add(1)
		wire.WriteRetryLater(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (%d waiting); retry later", s.opts.QueueDepth))
		return
	}
	s.store.add(j)
	s.metrics.jobsSubmitted.Add(1)
	et := tr.Begin("encode")
	wire.WriteJSON(w, http.StatusAccepted, j.snapshot())
	et.End()
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	wire.WriteJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		QueueDepth:    len(s.queue),
		Draining:      s.draining.Load(),
	})
}

// ---- plumbing ----

// decodeCompile is the preamble /v1/compile and /v1/jobs share: read
// the request, adopting an in-frame trace ID, answer an expired budget
// (504) and resolve the request to a spec (400). When it returns false
// it has already answered the request.
func (s *Server) decodeCompile(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (spec pipeline.Spec, budget time.Duration, ok bool) {
	dt := tr.Begin("decode")
	// The binary codec carries the trace ID inside the frame, which only
	// exists after decode; the echo header is written lazily at first
	// WriteHeader, so the adopted ID still wins.
	req, ok := wire.ReadRequest(w, r, s.opts.MaxBodyBytes, nil, tr.AdoptID)
	dt.End()
	if !ok {
		return spec, 0, false
	}
	if req.Deadline < 0 {
		s.writeExpired(w, req.Deadline)
		return spec, 0, false
	}
	spec, err := toSpec(req, s.workloads)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return spec, 0, false
	}
	return spec, req.Deadline, true
}
