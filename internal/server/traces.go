package server

import (
	"fmt"
	"net/http"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
)

// statusWriter wraps the compile-path ResponseWriter to (1) capture the
// response status for the trace and (2) write the X-Mpsched-Trace echo
// header lazily, at the last moment before headers flush — the binary
// codec carries the trace ID inside the request frame, so the effective
// ID is only known after body decode, well into the handler.
type statusWriter struct {
	http.ResponseWriter
	// flusher is the underlying writer's Flusher, captured once so the
	// batch stream's per-burst Flush does not pay a type assertion each
	// time; nil when the underlying writer cannot flush.
	flusher http.Flusher
	trace   *obs.Trace
	status  int
}

func newStatusWriter(w http.ResponseWriter, tr *obs.Trace) *statusWriter {
	f, _ := w.(http.Flusher)
	return &statusWriter{ResponseWriter: w, flusher: f, trace: tr}
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		w.Header().Set(obs.TraceHeader, w.trace.ID())
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes through to the underlying writer: handleBatch streams
// items and flushes per burst, which must keep working through the
// wrapper.
func (w *statusWriter) Flush() {
	if w.flusher != nil {
		w.flusher.Flush()
	}
}

// Status returns the written status, or 200 for a handler that never
// wrote an explicit one.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// stageHook bridges the compiler's per-stage callbacks into both
// telemetry sinks: the stage-duration metrics and — namespaced
// "stage:*", nested inside the surrounding "compile" span — the
// request's trace. jobIdx tags batch jobs (-1 elsewhere). Cache hits
// run no stages and fire no hooks; observeCompile records their
// "stage:cache" span instead, so the warm path pays the hook nothing.
func (s *Server) stageHook(tr *obs.Trace, jobIdx int) pipeline.StageHook {
	return func(info pipeline.StageInfo) {
		s.metrics.observeStage(info.Stage.String(), info.Elapsed)
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

// tracesResponse is the body of GET /debug/traces.
type tracesResponse struct {
	Traces []obs.TraceData `json:"traces"`
}

// maxTracesPage caps ?n= so a hostile query cannot make the handler
// render an arbitrary amount; the ring itself bounds the real maximum.
const maxTracesPage = 1024

// handleTraces serves GET /debug/traces: the most recent traces, newest
// first, up to ?n= (default 32).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &n); err != nil || n < 1 || n > maxTracesPage {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("n must be an integer in [1, %d]", maxTracesPage))
			return
		}
	}
	s.writeJSON(w, http.StatusOK, tracesResponse{Traces: s.traces.Recent(n)})
}

// handleTraceByID serves GET /debug/traces/{id}: one trace's full span
// breakdown, while it is still in the ring.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td, ok := s.traces.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no trace %q in the last %d", id, s.opts.TraceBuffer))
		return
	}
	s.writeJSON(w, http.StatusOK, td)
}
