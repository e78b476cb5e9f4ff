package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mpsched/internal/wire"
)

// Edge is the instrumented HTTP front of a daemon — mpschedd and
// mpschedrouter both serve through one. Every route registered with
// Route is counted, gauged while in flight and timed; a traced route
// also gets a per-request Trace. The edge serves the recorder behind
// GET /debug/traces and GET /debug/traces/{id}.
type Edge struct {
	mux      *http.ServeMux
	traces   *Recorder
	requests *CounterVec
	inflight *Counter
	latency  func(route, codec string) *LockedHistogram
}

// NewEdge returns an edge that registers routes on mux, counts requests
// into requests (one label: the route), gauges them in inflight, records
// each one's latency in the series latency picks from its route and
// request codec name, and keeps traced requests in traces. The trace
// endpoints are registered on mux directly, outside the request metrics.
func NewEdge(mux *http.ServeMux, traces *Recorder, requests *CounterVec, inflight *Counter, latency func(route, codec string) *LockedHistogram) *Edge {
	e := &Edge{mux: mux, traces: traces, requests: requests, inflight: inflight, latency: latency}
	mux.HandleFunc("GET /debug/traces", e.serveRecent)
	mux.HandleFunc("GET /debug/traces/{id}", e.serveTrace)
	return e
}

// Route registers h for pattern. A request is counted before h runs and
// its latency recorded after, so at any scrape the request counter is at
// least the latency count. A traced route's handler gets a Trace in its
// request context — its ID from the X-Mpsched-Trace header, or
// generated — and writes through a StatusWriter, which echoes the ID;
// the finished trace is recorded with the response status.
func (e *Edge) Route(pattern string, traced bool, h http.HandlerFunc) {
	// Latency series are resolved once per codec: a summary with no
	// observations does not render, so they still appear at first use.
	latency := map[string]*LockedHistogram{}
	for _, c := range wire.Codecs() {
		latency[c.Name()] = e.latency(pattern, c.Name())
	}
	e.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		e.requests.With(pattern).Add(1)
		e.inflight.Add(1)
		defer e.inflight.Add(-1)
		codec := wire.RequestCodec(r).Name()
		start := time.Now()
		if !traced {
			h(w, r)
			latency[codec].Record(time.Since(start))
			return
		}
		tr := NewTrace(r.Header.Get(TraceHeader), pattern, codec)
		sw := &StatusWriter{ResponseWriter: w, trace: tr}
		sw.flusher, _ = w.(http.Flusher)
		h(sw, r.WithContext(WithTrace(r.Context(), tr)))
		d := time.Since(start)
		tr.Finish(sw.Status(), d)
		e.traces.Record(tr)
		latency[codec].Record(d)
	})
}

// StatusWriter is the ResponseWriter of a traced route. It captures the
// response status for the trace and sets the X-Mpsched-Trace echo header
// at the last moment before the headers go out: the binary codec carries
// the trace ID inside the request frame, so the effective ID is only
// known after the handler decoded the body.
type StatusWriter struct {
	http.ResponseWriter
	// flusher is the underlying writer's Flusher, captured once so a
	// batch stream's per-burst Flush does not pay a type assertion each
	// time; nil when the underlying writer cannot flush.
	flusher http.Flusher
	trace   *Trace
	status  int
}

// WriteHeader implements http.ResponseWriter.
func (w *StatusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		w.Header().Set(TraceHeader, w.trace.ID())
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write implements http.ResponseWriter.
func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes through to the underlying writer: batch handlers stream
// items and flush per burst through the wrapper.
func (w *StatusWriter) Flush() {
	if w.flusher != nil {
		w.flusher.Flush()
	}
}

// Started reports whether the response status has been written.
func (w *StatusWriter) Started() bool { return w.status != 0 }

// Status returns the written status, or 200 for a handler that never
// wrote an explicit one.
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// maxTracesPage caps ?n= so a hostile query cannot make the handler
// render an arbitrary amount; the ring itself bounds the real maximum.
const maxTracesPage = 1024

// serveRecent serves GET /debug/traces: the most recent traces, newest
// first, up to ?n= (default 32).
func (e *Edge) serveRecent(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		var err error
		if n, err = strconv.Atoi(q); err != nil || n < 1 || n > maxTracesPage {
			wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("n must be an integer in [1, %d]", maxTracesPage))
			return
		}
	}
	wire.WriteJSON(w, http.StatusOK, struct {
		Traces []TraceData `json:"traces"`
	}{e.traces.Recent(n)})
}

// serveTrace serves GET /debug/traces/{id}: one trace's full span
// breakdown, while it is still in the ring.
func (e *Edge) serveTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td, ok := e.traces.Get(id)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no trace %q in the last %d", id, len(e.traces.ring)))
		return
	}
	wire.WriteJSON(w, http.StatusOK, td)
}
