package server

import (
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/store"
)

// metrics is the daemon's /metrics surface, declared on an obs.Registry
// under the mpschedd_ prefix. Counters are lock-free; latency
// distributions are log-linear histograms over the full history.
// Compile latency is split by outcome, so fast-failing requests cannot
// pass for a healthy p50. Cache, tier and queue state is read at scrape
// time.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	requests *obs.CounterVec // route

	compiles      *obs.Counter // compile attempts (sync + async + batch)
	compileErrors *obs.Counter // attempts that returned an error

	jobsSubmitted *obs.Counter // async jobs accepted into the queue
	jobsCompleted *obs.Counter // async jobs finished successfully
	jobsFailed    *obs.Counter // async jobs finished with an error
	jobsRejected  *obs.Counter // async jobs refused at admission (queue full / draining)

	batchJobs     *obs.Counter // batch jobs admitted across all envelopes
	batchRejected *obs.Counter // batch jobs refused at admission (capacity / draining)

	panics          *obs.Counter // panics isolated (handler or compile); the daemon survived each one
	deadlineExpired *obs.Counter // requests/jobs 504ed by their own deadline budget
	shedAsync       *obs.Counter // async submissions shed by the brownout controller
	shedSync        *obs.Counter // sync compiles/batches shed by the brownout controller

	inflightRequests *obs.Counter // HTTP requests currently in a handler
	inflightBatch    *obs.Counter // batch jobs admitted and not yet finished

	requestSeconds *obs.SummaryVec // route, codec
	compileOK      *obs.LockedHistogram
	compileErr     *obs.LockedHistogram
	// queueWait is the time async jobs spent queued before a worker
	// picked them up.
	queueWait *obs.LockedHistogram
	// stages is compiler-stage wall clock per stage name, plus "cache"
	// for results served from the result cache. stageCache is that
	// series, held directly: the batched cache-hit path records into it
	// per job.
	stages     *obs.SummaryVec
	stageCache *obs.LockedHistogram
}

func newMetrics(s *Server) *metrics {
	r := &obs.Registry{}
	m := &metrics{reg: r, start: time.Now()}
	m.requests = r.CounterVec("mpschedd_requests_total", "HTTP requests by route.", "route")
	m.compiles = r.Counter("mpschedd_compiles_total", "Compile attempts (sync and async).")
	m.compileErrors = r.Counter("mpschedd_compile_errors_total", "Compile attempts that failed.")
	r.Value("mpschedd_cache_hits_total", "Result-cache hits.", obs.KindCounter,
		func() float64 { return float64(s.cacheStats().Hits) })
	r.Value("mpschedd_cache_misses_total", "Result-cache misses.", obs.KindCounter,
		func() float64 { return float64(s.cacheStats().Misses) })
	r.Value("mpschedd_cache_entries", "Results currently cached.", obs.KindGauge,
		func() float64 { return float64(s.cacheStats().Entries) })

	// A tiered store additionally exposes per-tier breakdowns; plain
	// memory caches render only the totals above.
	tier := func(name, help string, kind obs.Kind, v func(store.Stats) float64) {
		r.Func(name, help, kind, []string{"tier"}, func(emit func(float64, ...string)) {
			if t, ok := s.cache.(store.Tiers); ok {
				for _, ts := range t.Tiers() {
					emit(v(ts.Stats), ts.Tier)
				}
			}
		})
	}
	tier("mpschedd_store_hits_total", "Result-store hits by tier.", obs.KindCounter,
		func(st store.Stats) float64 { return float64(st.Hits) })
	tier("mpschedd_store_misses_total", "Result-store misses by tier.", obs.KindCounter,
		func(st store.Stats) float64 { return float64(st.Misses) })
	tier("mpschedd_store_evictions_total", "Result-store evictions by tier.", obs.KindCounter,
		func(st store.Stats) float64 { return float64(st.Evictions) })
	tier("mpschedd_store_entries", "Results currently stored by tier.", obs.KindGauge,
		func(st store.Stats) float64 { return float64(st.Entries) })
	tier("mpschedd_store_bytes", "Bytes held by tier (disk tiers only).", obs.KindGauge,
		func(st store.Stats) float64 { return float64(st.Bytes) })

	m.jobsSubmitted = r.Counter("mpschedd_jobs_submitted_total", "Async jobs accepted into the queue.")
	m.jobsCompleted = r.Counter("mpschedd_jobs_completed_total", "Async jobs finished successfully.")
	m.jobsFailed = r.Counter("mpschedd_jobs_failed_total", "Async jobs finished with an error.")
	m.jobsRejected = r.Counter("mpschedd_jobs_rejected_total", "Async jobs refused at admission.")
	m.batchJobs = r.Counter("mpschedd_batch_jobs_total", "Batch jobs admitted across all envelopes.")
	m.batchRejected = r.Counter("mpschedd_batch_rejected_total", "Batch jobs refused at admission.")
	m.panics = r.Counter("mpschedd_panics_total", "Panics isolated to one request or job; the daemon survived each.")
	m.deadlineExpired = r.Counter("mpschedd_deadline_expired_total", "Requests or jobs that ran out of their deadline budget.")
	shed := r.CounterVec("mpschedd_shed_total", "Work shed by the brownout controller, by class.", "class")
	m.shedAsync, m.shedSync = shed.With("async"), shed.With("sync")

	r.Value("mpschedd_queue_depth", "Async jobs waiting in the queue.", obs.KindGauge,
		func() float64 { return float64(len(s.queue)) })
	r.Value("mpschedd_queue_capacity", "Async queue admission bound.", obs.KindGauge,
		func() float64 { return float64(s.opts.QueueDepth) })
	m.inflightRequests = r.Gauge("mpschedd_inflight_requests", "HTTP requests currently being handled.")
	m.inflightBatch = r.Gauge("mpschedd_inflight_batch_jobs", "Batch jobs admitted and not yet finished.")
	r.Value("mpschedd_uptime_seconds", "Seconds since the daemon started.", obs.KindGauge,
		func() float64 { return time.Since(m.start).Seconds() })
	// Every compile — sync or async — passes through observeCompile, so
	// successful compiles is the jobs/sec numerator.
	r.Value("mpschedd_jobs_per_second", "Successful compiles per second of uptime.", obs.KindGauge, func() float64 {
		if uptime := time.Since(m.start).Seconds(); uptime > 0 {
			return float64(m.compiles.Load()-m.compileErrors.Load()) / uptime
		}
		return 0
	})

	m.requestSeconds = r.SummaryVec("mpschedd_request_seconds", "End-to-end request latency by route and codec.", "route", "codec")
	compile := r.SummaryVec("mpschedd_compile_seconds", "Compile wall-clock latency by outcome.", "outcome")
	m.compileOK, m.compileErr = compile.With("ok"), compile.With("error")
	m.queueWait = r.SummaryVec("mpschedd_queue_wait_seconds", "Async job wait from admission to a worker picking it up.").With()
	m.stages = r.SummaryVec("mpschedd_stage_seconds", `Compiler stage wall clock by stage ("cache" = served from the result cache).`, "stage")
	m.stageCache = m.stages.With("cache")
	return m
}

// observeCompile records one compile attempt's outcome and latency.
// Failed compiles record too, under their own outcome label.
func (m *metrics) observeCompile(d time.Duration, err error) {
	m.compiles.Add(1)
	if err != nil {
		m.compileErrors.Add(1)
		m.compileErr.Record(d)
		return
	}
	m.compileOK.Record(d)
}

// cacheStats samples the result cache; zero when caching is disabled.
func (s *Server) cacheStats() store.Stats {
	if s.cache == nil {
		return store.Stats{}
	}
	return s.cache.Stats()
}
