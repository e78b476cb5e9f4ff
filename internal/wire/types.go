package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
)

// CompileRequest is the body of POST /v1/compile and POST /v1/jobs, and
// one member of a /v1/batch envelope. Exactly one graph source must be
// given: Workload (a generator spec such as "fft:8" — see GET
// /v1/workloads), DFG (an inline graph in the `dfg` JSON wire format, see
// internal/dfg/io.go), or Graph (a decoded graph — what the binary codec
// carries, and what Go clients may set directly with any codec).
type CompileRequest struct {
	// Name labels the job in responses; defaults to the workload spec or
	// the graph's own name.
	Name string `json:"name,omitempty"`
	// Workload is a generator spec, e.g. "fft:8" or "fir:8,4".
	Workload string `json:"workload,omitempty"`
	// DFG is an inline graph in the dfg JSON wire format. Decoding moves
	// it into Graph: a decoded request never carries DFG.
	DFG json.RawMessage `json:"dfg,omitempty"`
	// Graph is an inline graph in decoded form. It never appears in JSON
	// bodies (the JSON codec converts it to DFG on encode); the binary
	// codec carries it in the compact dfg binary framing.
	Graph *dfg.Graph `json:"-"`
	// Select parameterises pattern selection; nil takes the defaults
	// (C=5, Pdef=4, span ≤ 1 — the paper's operating point).
	Select *SelectConfig `json:"select,omitempty"`
	// Sched parameterises the list scheduler; nil is the paper's
	// configuration (F2 priority, descending-index tie-break).
	Sched *SchedConfig `json:"sched,omitempty"`
	// StopAfter ends the compile after the named stage: "census",
	// "select" or "schedule" (empty = full compile). Partial compiles
	// return partial responses — a select-only compile has patterns and
	// census but no cycles.
	StopAfter string `json:"stop_after,omitempty"`
	// Spans, when non-empty, sweeps these antichain span limits and keeps
	// the best schedule (response field "span" reports the winner).
	// Unlike select.span, a literal 0 here means span ≤ 0.
	Spans []int `json:"spans,omitempty"`
	// TraceID identifies the request in the server's tracing layer. It
	// never appears in JSON bodies — HTTP carries it in the
	// X-Mpsched-Trace header — but the binary codec frames it inline so
	// batched envelopes can tag jobs without per-job headers. Empty means
	// the server generates one; either way the response echoes the
	// effective ID.
	TraceID string `json:"-"`
	// Deadline is the request's remaining time budget. Like TraceID it
	// never appears in JSON bodies — HTTP carries it in the DeadlineHeader
	// — but the binary codec frames it inline so each job in a batch
	// envelope can carry its own budget. Zero means no deadline. On a
	// request from ReadRequest or ReadBatch it is the effective budget,
	// the header's and the frame's merged, and negative once expired.
	Deadline time.Duration `json:"-"`
	// graphErr is why the inline graph did not decode (see GraphErr).
	graphErr error
}

// GraphErr reports why the request's inline graph did not decode — it
// did not parse or validate, or a binary frame carried both inline
// forms — or nil. The rest of the request decoded regardless.
func (r *CompileRequest) GraphErr() error { return r.graphErr }

// errTwoGraphs is the graph fault of a binary frame carrying both inline
// forms, in the words a server gives any request with two graph sources.
var errTwoGraphs = errors.New("workload: provide either workload or dfg, not both")

// decodeDFG decodes raw, an inline graph in the dfg JSON wire format,
// into Graph through texts, or keeps why it did not decode in graphErr;
// an earlier graph fault stands. A JSON null is no graph at all, as an
// absent field is. DFG is cleared either way.
func (r *CompileRequest) decodeDFG(raw []byte, texts graphMemo) {
	r.DFG = nil
	if len(raw) == 0 || string(bytes.Trim(raw, " \t\r\n")) == "null" || r.graphErr != nil {
		return
	}
	switch g, err := texts.decode(raw); {
	case err != nil:
		r.graphErr = err
	case r.Graph != nil:
		r.graphErr = errTwoGraphs
	default:
		r.Graph = g
	}
}

// SelectConfig is the wire form of patsel.Config.
type SelectConfig struct {
	C    int `json:"c,omitempty"`    // pattern capacity (default 5)
	Pdef int `json:"pdef,omitempty"` // patterns to select (default 4)
	// Span bounds the antichain span: nil or 0 means the paper's span ≤ 1,
	// -1 means unlimited.
	Span    int     `json:"span,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"` // Eq. 8 ε (default 0.5)
	Alpha   float64 `json:"alpha,omitempty"`   // Eq. 8 α (default 20)
}

// SchedConfig is the wire form of sched.Options.
type SchedConfig struct {
	Priority      string `json:"priority,omitempty"` // "F1" or "F2" (default)
	Tie           string `json:"tie,omitempty"`      // desc (default), asc, stable, random
	Seed          int64  `json:"seed,omitempty"`
	SwitchPenalty int64  `json:"switch_penalty,omitempty"`
}

// CompileResponse is the result of a compile, inline from /v1/compile or
// inside a finished job from /v1/jobs/{id}. Partial compiles
// (stop_after) carry only the fields their stages produced: a
// select-only response has patterns and census but no cycles.
type CompileResponse struct {
	Name        string   `json:"name"`
	Nodes       int      `json:"nodes"`
	EdgesCount  int      `json:"edges"`
	Patterns    []string `json:"patterns,omitempty"` // compact notation, sorted
	Cycles      int      `json:"cycles,omitempty"`
	LowerBound  int      `json:"lower_bound,omitempty"` // 0 when unavailable
	Utilization float64  `json:"utilization,omitempty"`
	// CycleOf maps node id → 0-based clock cycle; PatternOf maps cycle →
	// index into Patterns as returned by the scheduler (pre-sort order).
	CycleOf   []int `json:"cycle_of,omitempty"`
	PatternOf []int `json:"pattern_of,omitempty"`
	// SchedulerPatterns is the pattern list in PatternOf's index order.
	SchedulerPatterns []string `json:"scheduler_patterns,omitempty"`
	// StopAfter echoes the request's stop stage (empty = full compile).
	StopAfter string `json:"stop_after,omitempty"`
	// Span is the effective antichain span limit; with a "spans" sweep it
	// is the winning limit.
	Span int `json:"span"`
	// SweptSpans reports that Span was chosen by a span sweep.
	SweptSpans bool `json:"swept_spans,omitempty"`
	// Census summarises the antichain census backing the selection (absent
	// on cache hits served without re-enumerating, and for cached full
	// compiles it is restored from the cache entry).
	Census *CensusResponse `json:"census,omitempty"`
	// Stages holds per-stage wall-clock timings in execution order
	// (absent on cache hits: no stage ran).
	Stages    []StageTimingResponse `json:"stages,omitempty"`
	CacheHit  bool                  `json:"cache_hit"`
	ElapsedMS float64               `json:"elapsed_ms"`
	// TraceID echoes the request's effective trace ID; look it up at
	// GET /debug/traces/{id} for the span breakdown.
	TraceID string `json:"trace_id,omitempty"`
}

// CensusResponse is the wire form of the antichain census summary.
type CensusResponse struct {
	Antichains int `json:"antichains"`
	Classes    int `json:"classes"`
	Span       int `json:"span"`
}

// StageTimingResponse is one stage's wall-clock cost on the wire.
type StageTimingResponse struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// Job lifecycle states reported by /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobResponse is the body of POST /v1/jobs and GET /v1/jobs/{id}.
type JobResponse struct {
	ID     string           `json:"id"`
	Status string           `json:"status"`
	Error  string           `json:"error,omitempty"`
	Result *CompileResponse `json:"result,omitempty"`
	// TraceID is the submit request's effective trace ID; the job's
	// queue-wait and compile spans attach to that trace as it executes.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Errors are always
// JSON regardless of the negotiated codec — a client that cannot decode
// its preferred format on a failure can always read the error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	Draining      bool    `json:"draining"`
}

// WorkloadsResponse is the body of GET /v1/workloads.
type WorkloadsResponse struct {
	Workloads []cliutil.Workload `json:"workloads"`
}

// BatchRequest is the envelope of POST /v1/batch: N compile jobs carried
// by one round-trip. Results stream back as BatchItems in completion
// order, not job order — consumers match on Index.
type BatchRequest struct {
	Jobs []CompileRequest `json:"jobs"`
}

// BatchItem is one job's outcome inside a /v1/batch response stream.
// Status carries the per-job HTTP-equivalent code, so one envelope can
// mix successes (200), request faults (400), oversized graphs (413),
// admission rejections (429) and compile failures (422) without any of
// them failing the envelope.
type BatchItem struct {
	// Index is the job's position in the request envelope.
	Index int `json:"index"`
	// Status is the per-job HTTP-equivalent status code.
	Status int `json:"status"`
	// Error describes a non-200 outcome.
	Error string `json:"error,omitempty"`
	// Result is the compile result when Status is 200.
	Result *CompileResponse `json:"result,omitempty"`
}
