// Package obs is the serving stack's observability layer, on the
// standard library alone plus internal/wire for the HTTP bodies:
// per-request traces made of named spans, a fixed-size recorder behind
// the /debug/traces endpoints and the slow-trace log, the log-linear
// latency histogram shared by the load generator and the /metrics
// quantiles (hist.go), the metric registry both daemons declare their
// /metrics surface on (registry.go), the instrumented HTTP edge both
// daemons serve through (edge.go), and a parser for the Prometheus text
// exposition so clients can diff a server's counters around a run
// (promtext.go).
//
// A Trace is created at the HTTP edge (one per request, identified by
// the X-Mpsched-Trace header, generated when the client sends none) and
// carried through the handler in the request context. Handlers attach
// spans — decode, admission, cache lookup, compiler stages, encode,
// batch flushes — and the edge finishes the trace with the response
// status and wall-clock cost. Finished traces land in a Recorder ring;
// traces over the slow threshold are additionally logged via log/slog
// with their full span breakdown.
//
// Span naming convention: top-level spans (decode, compile, encode,
// admit, flush, queue_wait) partition the request's wall clock — their
// durations sum to ≈ the trace duration. Spans prefixed "stage:" (the
// compiler stages, and "stage:cache" for a result served from the
// result cache) nest inside "compile" and are excluded from that sum.
//
// All of Trace's methods are safe on a nil receiver (no-ops), so code
// paths shared between traced and untraced requests need no guards, and
// spans may still be attached after Finish — an async job appends its
// queue-wait and compile spans when it eventually runs, long after the
// submit request's HTTP response went out.
package obs

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that carries the request's trace ID.
// Clients may set it to their own ID (any non-empty string up to
// MaxTraceIDLen bytes); the server echoes the effective ID on every
// traced response, so a load generator can correlate its own latency
// samples with the server's span breakdown.
const TraceHeader = "X-Mpsched-Trace"

// MaxTraceIDLen bounds client-supplied trace IDs; longer IDs are
// replaced with a generated one rather than stored (the ring buffer
// must not become a hostile-input memory sink).
const MaxTraceIDLen = 64

// NewTraceID returns a fresh 16-hex-char trace ID. IDs only need to be
// unique within the recorder's ring window, so a fast PRNG draw beats a
// CSPRNG read on the request hot path.
func NewTraceID() string {
	const hexdigits = "0123456789abcdef"
	v := rand.Uint64()
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Span is one timed step inside a trace.
type Span struct {
	// Name identifies the step ("decode", "compile", "stage:census", ...).
	Name string
	// Job is the batch-envelope job index the span belongs to, or -1 for
	// request-level spans.
	Job int
	// Start is the span's offset from the trace start.
	Start time.Duration
	// Duration is the span's wall-clock cost.
	Duration time.Duration
}

// maxSpansPerTrace caps a single trace's span list so a huge batch
// envelope cannot turn the ring buffer into unbounded memory; overflow
// is counted, not silently lost.
const maxSpansPerTrace = 512

// Trace is one request's span collection. Construct with NewTrace; all
// methods are goroutine-safe and no-ops on a nil receiver.
type Trace struct {
	mu       sync.Mutex
	id       string
	route    string
	codec    string
	start    time.Time
	status   int
	duration time.Duration
	finished bool
	spans    []Span
	dropped  int
}

// NewTrace starts a trace for one request. An empty (or over-long) id
// gets a generated one.
func NewTrace(id, route, codec string) *Trace {
	if id == "" || len(id) > MaxTraceIDLen {
		id = NewTraceID()
	}
	return &Trace{id: id, route: route, codec: codec, start: time.Now()}
}

// ID returns the trace's effective ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// AdoptID replaces a generated ID with one the client carried inside
// the request body (the binary codec's in-frame trace field, decoded
// after the trace already exists). No-op once the trace is finished, or
// for empty/over-long IDs.
func (t *Trace) AdoptID(id string) {
	if t == nil || id == "" || len(id) > MaxTraceIDLen {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.id = id
	}
	t.mu.Unlock()
}

// StartTime returns when the trace began. The start is set once in
// NewTrace and never mutated, so the read needs no lock — callers use it
// to pre-compute span offsets for ObserveSpans.
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// ObserveSpans appends pre-built spans — Start already relative to
// StartTime — under a single lock acquisition. This is the batch
// writer's bulk path: one lock per flushed burst instead of one per
// job span. Spans beyond the per-trace cap count as dropped.
func (t *Trace) ObserveSpans(spans ...Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	n := maxSpansPerTrace - len(t.spans)
	if n > len(spans) {
		n = len(spans)
	}
	if n > 0 {
		t.spans = append(t.spans, spans[:n]...)
	}
	t.dropped += len(spans) - n
	t.mu.Unlock()
}

// Grow pre-sizes the span list for a caller that knows roughly how many
// spans are coming (a batch envelope records about two per job), so the
// storm path does not pay repeated append-growth copies. Capped at the
// per-trace span limit.
func (t *Trace) Grow(n int) {
	if t == nil || n <= 0 {
		return
	}
	if n > maxSpansPerTrace {
		n = maxSpansPerTrace
	}
	t.mu.Lock()
	if cap(t.spans) < n {
		s := make([]Span, len(t.spans), n)
		copy(s, t.spans)
		t.spans = s
	}
	t.mu.Unlock()
}

// Observe records one span from explicit timestamps. Spans beyond the
// per-trace cap are counted as dropped.
func (t *Trace) Observe(name string, job int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{Name: name, Job: job, Start: start.Sub(t.start), Duration: d})
	}
	t.mu.Unlock()
}

// SpanTimer measures one span; obtain with Begin/BeginJob, close with
// End. The zero value (and any timer from a nil trace) is a no-op.
type SpanTimer struct {
	t    *Trace
	name string
	job  int
	t0   time.Time
}

// Begin starts a request-level span.
func (t *Trace) Begin(name string) SpanTimer {
	return t.BeginJob(name, -1)
}

// BeginJob starts a span attributed to one batch job.
func (t *Trace) BeginJob(name string, job int) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{t: t, name: name, job: job, t0: time.Now()}
}

// End records the span.
func (s SpanTimer) End() {
	if s.t == nil {
		return
	}
	s.t.Observe(s.name, s.job, s.t0, time.Since(s.t0))
}

// Finish seals the trace with the response status and total wall-clock
// cost. Spans may still be attached afterwards (async job execution);
// only the ID freezes.
func (t *Trace) Finish(status int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = status
	t.duration = d
	t.finished = true
	t.mu.Unlock()
}

// TraceData is a trace's JSON rendering — the /debug/traces wire shape.
type TraceData struct {
	ID     string    `json:"id"`
	Route  string    `json:"route"`
	Codec  string    `json:"codec"`
	Start  time.Time `json:"start"`
	Status int       `json:"status"`
	// DurationMS is the request's total wall-clock cost; zero until the
	// trace is finished.
	DurationMS float64 `json:"duration_ms"`
	// Spans is the recorded breakdown. Top-level spans sum to ≈
	// DurationMS; "stage:*" spans nest inside "compile" (see package doc).
	Spans []SpanData `json:"spans"`
	// DroppedSpans counts spans lost to the per-trace cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// SpanData is a span's JSON rendering.
type SpanData struct {
	Name string `json:"name"`
	// Job is the batch job index, or -1 for request-level spans.
	Job        int     `json:"job"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// Snapshot clones the trace's current state for rendering.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceData{
		ID:           t.id,
		Route:        t.route,
		Codec:        t.codec,
		Start:        t.start,
		Status:       t.status,
		DurationMS:   ms(t.duration),
		Spans:        make([]SpanData, len(t.spans)),
		DroppedSpans: t.dropped,
	}
	for i, sp := range t.spans {
		d.Spans[i] = SpanData{Name: sp.Name, Job: sp.Job, StartMS: ms(sp.Start), DurationMS: ms(sp.Duration)}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// SpanSummary renders the span set as one deterministic line
// ("decode=0.021ms compile=1.302ms ...", batch jobs tagged
// "compile[3]=..."), the shape the slow-trace log prints — tests pin
// that /debug/traces/{id} and the log describe the same spans.
func (d TraceData) SpanSummary() string {
	var b strings.Builder
	for i, sp := range d.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		if sp.Job >= 0 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(sp.Job))
			b.WriteByte(']')
		}
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(sp.DurationMS, 'f', 3, 64))
		b.WriteString("ms")
	}
	return b.String()
}

// ctxKey keys the trace in a request context.
type ctxKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil — and every Trace
// method tolerates nil, so callers need no presence check.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Recorder keeps the most recent finished traces in a fixed ring and
// emits the slow-trace log. One mutex guards the ring: inserts are one
// per HTTP request (not per compile), so contention is negligible even
// at batched-storm request rates.
type Recorder struct {
	mu   sync.Mutex
	ring []*Trace // capacity-sized; nil slots until the ring fills
	next int
	byID map[string]*Trace
	slow time.Duration
	log  *slog.Logger
}

// NewRecorder returns a recorder keeping the last size traces and
// logging any trace at or over slow via logger (slow ≤ 0 disables the
// log; a nil logger means slog.Default).
func NewRecorder(size int, slow time.Duration, logger *slog.Logger) *Recorder {
	if size < 1 {
		size = 1
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Recorder{
		ring: make([]*Trace, size),
		byID: make(map[string]*Trace, size),
		slow: slow,
		log:  logger,
	}
}

// Record adds a finished trace to the ring (evicting the oldest) and
// emits the slow-trace log line when the trace crossed the threshold.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	// Only the ID and duration are needed up front; the full span
	// snapshot is deferred to the slow-log path so the storm-path ring
	// insert never copies a big batch trace's span list.
	t.mu.Lock()
	id, dur := t.id, t.duration
	t.mu.Unlock()
	r.mu.Lock()
	if old := r.ring[r.next]; old != nil {
		// Only unmap the slot's own ID: a duplicate client-supplied ID may
		// have re-mapped it to a newer trace already.
		if r.byID[old.ID()] == old {
			delete(r.byID, old.ID())
		}
	}
	r.ring[r.next] = t
	r.byID[id] = t
	r.next = (r.next + 1) % len(r.ring)
	r.mu.Unlock()

	if r.slow > 0 && dur >= r.slow {
		snap := t.Snapshot()
		r.log.Warn("slow trace",
			"trace", snap.ID,
			"route", snap.Route,
			"codec", snap.Codec,
			"status", snap.Status,
			"duration_ms", snap.DurationMS,
			"spans", snap.SpanSummary(),
		)
	}
}

// Get returns the identified trace's current snapshot.
func (r *Recorder) Get(id string) (TraceData, bool) {
	r.mu.Lock()
	t, ok := r.byID[id]
	r.mu.Unlock()
	if !ok {
		return TraceData{}, false
	}
	return t.Snapshot(), true
}

// Recent returns up to n traces, newest first. n ≤ 0 returns the whole
// ring.
func (r *Recorder) Recent(n int) []TraceData {
	r.mu.Lock()
	size := len(r.ring)
	if n <= 0 || n > size {
		n = size
	}
	picked := make([]*Trace, 0, n)
	for i := 1; i <= size && len(picked) < n; i++ {
		if t := r.ring[(r.next-i+size)%size]; t != nil {
			picked = append(picked, t)
		}
	}
	r.mu.Unlock()
	out := make([]TraceData, len(picked))
	for i, t := range picked {
		out[i] = t.Snapshot()
	}
	return out
}
