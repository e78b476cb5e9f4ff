package server

import (
	"fmt"

	"mpsched/internal/antichain"
	"mpsched/internal/cliutil"
	"mpsched/internal/pipeline"
)

// FieldError is a request-validation failure naming the offending wire
// field (JSON path, e.g. "select.pdef"). Every invalid CompileRequest is
// rejected with one, so clients can map errors back to their input
// instead of parsing prose.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Msg }

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// stopStages maps the wire stop_after names to compiler stages. The
// server's subset: parse never runs (graphs arrive parsed or generated)
// and allocate needs an architecture the wire format does not carry yet.
var stopStages = map[string]pipeline.Stage{
	"":         pipeline.StageAll,
	"census":   pipeline.StageCensus,
	"select":   pipeline.StageSelect,
	"schedule": pipeline.StageSchedule,
}

// maxSpans bounds a request's span sweep, since each span costs a census,
// a selection and a schedule. It covers the five span limits of the
// paper's Table 5 with room to spare.
const maxSpans = 16

// ValidateRequest checks everything about a decoded request that can be
// checked without touching a graph, returning a *FieldError naming the
// first offending field. The daemon calls it in toSpec and the router
// before it routes a request, so both answer a bad request alike.
// Workload generation stays in toSpec, and an inline graph arrives
// decoded (or as its GraphErr) — those failures carry their own
// diagnostics. (A function, not a method:
// CompileRequest is an alias into internal/wire, which stays free of
// server policy.)
func ValidateRequest(r CompileRequest) error {
	switch {
	case r.Workload != "" && r.Graph != nil:
		return fieldErrf("workload", "provide either workload or dfg, not both")
	case r.Workload == "" && r.Graph == nil:
		return fieldErrf("workload", "provide a graph: workload (see /v1/workloads) or inline dfg")
	}

	if c := r.Select; c != nil {
		if c.C < 0 {
			return fieldErrf("select.c", "%d < 0", c.C)
		}
		if c.C > antichain.MaxSizeLimit {
			return fieldErrf("select.c", "%d > %d, the largest pattern capacity", c.C, antichain.MaxSizeLimit)
		}
		if c.Pdef < 0 {
			return fieldErrf("select.pdef", "%d < 0 (0 selects the default %d)", c.Pdef, defaultPdef)
		}
		if c.Span < -1 {
			return fieldErrf("select.span", "%d < -1 (-1 means unlimited)", c.Span)
		}
		if c.Epsilon < 0 {
			return fieldErrf("select.epsilon", "%g < 0", c.Epsilon)
		}
		if c.Alpha < 0 {
			return fieldErrf("select.alpha", "%g < 0", c.Alpha)
		}
	}

	if c := r.Sched; c != nil {
		if c.Priority != "" {
			if _, err := cliutil.ParsePriority(c.Priority); err != nil {
				return fieldErrf("sched.priority", "%v", err)
			}
		}
		if c.Tie != "" {
			if _, err := cliutil.ParseTieBreak(c.Tie); err != nil {
				return fieldErrf("sched.tie", "%v", err)
			}
		}
	}

	stop, ok := stopStages[r.StopAfter]
	if !ok {
		return fieldErrf("stop_after", "unknown stage %q (want census, select or schedule)", r.StopAfter)
	}
	if len(r.Spans) > maxSpans {
		return fieldErrf("spans", "%d spans > %d, the most one request may sweep", len(r.Spans), maxSpans)
	}
	for _, s := range r.Spans {
		if s < -1 {
			return fieldErrf("spans", "span %d < -1 (-1 means unlimited)", s)
		}
	}
	if len(r.Spans) > 0 && (stop == pipeline.StageCensus || stop == pipeline.StageSelect) {
		return fieldErrf("spans", "a span sweep ranks by schedule length and cannot stop after %q", r.StopAfter)
	}
	return nil
}
