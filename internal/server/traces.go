package server

import (
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
)

// stageHook bridges the compiler's per-stage callbacks into both
// telemetry sinks: the stage-duration metrics and — namespaced
// "stage:*", nested inside the surrounding "compile" span — the
// request's trace. jobIdx tags batch jobs (-1 elsewhere). Cache hits
// run no stages and fire no hooks; observeCompile records their
// "stage:cache" span instead, so the warm path pays the hook nothing.
func (s *Server) stageHook(tr *obs.Trace, jobIdx int) pipeline.StageHook {
	return func(info pipeline.StageInfo) {
		s.metrics.stages.With(info.Stage.String()).Record(info.Elapsed)
		tr.Observe("stage:"+info.Stage.String(), jobIdx, time.Now().Add(-info.Elapsed), info.Elapsed)
	}
}

// observeCompile feeds one finished compile into both telemetry sinks:
// the outcome-labeled latency metric, the trace's "compile" span, and,
// for cache hits, the synthetic "cache" stage (metric, plus a
// "stage:cache" trace span) — the whole compile was one cache lookup,
// which the stage hooks never saw. A successful compile is timed by its
// report's Elapsed, the figure its response carries; a failed one by the
// clock since start. tr is nil on the batch path, whose stream writer
// derives the per-job spans from the responses instead.
func (s *Server) observeCompile(tr *obs.Trace, start time.Time, rep *pipeline.Report, err error) {
	var elapsed time.Duration
	hit := false
	if rep != nil {
		elapsed, hit = rep.Elapsed, rep.CacheHit
	} else {
		elapsed = time.Since(start)
	}
	s.metrics.observeCompile(elapsed, err)
	if hit {
		s.metrics.stageCache.Record(elapsed)
	}
	if tr == nil {
		return
	}
	begin := time.Now().Add(-elapsed)
	tr.Observe("compile", -1, begin, elapsed)
	if hit {
		tr.Observe("stage:cache", -1, begin, elapsed)
	}
}
