package server

import (
	"sort"
	"strings"
	"sync"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/pipeline"
	"mpsched/internal/sched"
	"mpsched/internal/wire"
)

// The serving wire types live in internal/wire, shared by this server,
// the typed client and every codec. The aliases keep the server's
// historical names (server.CompileRequest and friends) working.
type (
	CompileRequest      = wire.CompileRequest
	SelectConfig        = wire.SelectConfig
	SchedConfig         = wire.SchedConfig
	CompileResponse     = wire.CompileResponse
	CensusResponse      = wire.CensusResponse
	StageTimingResponse = wire.StageTimingResponse
	JobResponse         = wire.JobResponse
	ErrorResponse       = wire.ErrorResponse
	HealthResponse      = wire.HealthResponse
	WorkloadsResponse   = wire.WorkloadsResponse
	BatchRequest        = wire.BatchRequest
	BatchItem           = wire.BatchItem
)

// Job lifecycle states reported by /v1/jobs/{id}.
const (
	JobQueued  = wire.JobQueued
	JobRunning = wire.JobRunning
	JobDone    = wire.JobDone
	JobFailed  = wire.JobFailed
)

// badRequestError marks request-shaped failures (malformed graph, unknown
// workload, invalid config) so handlers map them to 400 rather than 422.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// toSpec resolves a decoded request into a compile spec. All failures
// are badRequestError: nothing has been compiled yet, so the fault is in
// the request. In order: an inline graph that did not decode, then the
// shape checks of ValidateRequest, then workload generation through
// workloads (a nil store generates every spec); the rest converts the
// wire configs.
func toSpec(req CompileRequest, workloads *wire.GraphStore) (pipeline.Spec, error) {
	spec := pipeline.Spec{Name: req.Name, Graph: req.Graph}
	if err := req.GraphErr(); err != nil {
		return spec, badRequestError{err}
	}
	if err := ValidateRequest(req); err != nil {
		return spec, badRequestError{err}
	}

	if req.Workload != "" {
		g, err := workloads.Workload(req.Workload)
		if err != nil {
			return spec, badRequestError{err}
		}
		spec.Graph = g
		if spec.Name == "" {
			spec.Name = req.Workload
		}
	}

	sel := patsel.Config{Pdef: defaultPdef}
	if c := req.Select; c != nil {
		if c.C != 0 {
			sel.C = c.C
		}
		if c.Pdef != 0 {
			sel.Pdef = c.Pdef
		}
		sel.MaxSpan = c.Span
		sel.Epsilon = c.Epsilon
		sel.Alpha = c.Alpha
	}
	spec.Select = sel

	if c := req.Sched; c != nil {
		opts := sched.Options{Seed: c.Seed, SwitchPenalty: c.SwitchPenalty}
		if c.Priority != "" {
			opts.Priority, _ = cliutil.ParsePriority(c.Priority) // validated above
		}
		if c.Tie != "" {
			opts.TieBreak, _ = cliutil.ParseTieBreak(c.Tie) // validated above
		}
		spec.Sched = opts
	}

	spec.StopAfter = stopStages[req.StopAfter] // validated above
	spec.Spans = req.Spans
	return spec, nil
}

// defaultPdef matches the CLI default: select 4 patterns when the request
// does not say otherwise.
const defaultPdef = 4

// toResponse converts a successful compile of a spec that stopped after
// stop to the wire shape. Fields are filled stage by stage, so partial
// compiles (stop_after) render exactly what they produced.
//
// The schedule-derived fields (pattern strings, cycles, utilization, the
// lower bound, the per-node assignments) are pure functions of the
// cached result. Every result-cache hit gets its own shallow copy of the
// cached schedule, rebound to the request's graph, but the copy shares
// the entry's slices, so hits are memoised in s.resps under respKey and
// computed once per distinct result, not per request. Misses are not
// memoised: a result computed with the cache off is never seen again,
// and a cached one fills the memo on its first hit. The memo entry is a
// frozen skeleton: responses copy the scalar fields and alias the
// slices, which nothing mutates after this point.
func (s *Server) toResponse(rep *pipeline.Report, stop pipeline.Stage) *CompileResponse {
	resp := &CompileResponse{
		Name:       rep.Name,
		Nodes:      rep.Graph.N(),
		EdgesCount: rep.Graph.M(),
		CacheHit:   rep.CacheHit,
		ElapsedMS:  rep.Elapsed.Seconds() * 1e3,
		Span:       rep.Span,
		SweptSpans: rep.SweptSpans,
	}
	if stop != pipeline.StageAll {
		resp.StopAfter = stop.String()
	}
	if rep.Census != nil {
		resp.Census = &CensusResponse{
			Antichains: rep.Census.Antichains,
			Classes:    rep.Census.Classes,
			Span:       rep.Census.Span,
		}
	}
	for _, st := range rep.Stages {
		resp.Stages = append(resp.Stages, StageTimingResponse{
			Stage: st.Stage.String(),
			MS:    st.Elapsed.Seconds() * 1e3,
		})
	}

	if sc := rep.Schedule; sc != nil {
		key := respKey(sc)
		memo := rep.CacheHit && key != nil
		var sk *CompileResponse
		if memo {
			sk, _ = s.resps.get(key)
		}
		if sk == nil {
			sk = scheduleSkeleton(rep.Graph, sc)
			if memo {
				s.resps.put(key, sk)
			}
		}
		resp.Patterns = sk.Patterns
		resp.SchedulerPatterns = sk.SchedulerPatterns
		resp.Cycles = sk.Cycles
		resp.Utilization = sk.Utilization
		resp.CycleOf = sk.CycleOf
		resp.PatternOf = sk.PatternOf
		resp.LowerBound = sk.LowerBound
	} else if rep.Selection != nil {
		resp.Patterns = compactPatterns(rep.Selection.Patterns)
		sort.Strings(resp.Patterns)
	}
	return resp
}

// scheduleSkeleton computes the schedule-derived response fields — the
// expensive, request-independent slice of toResponse.
func scheduleSkeleton(g *dfg.Graph, sc *sched.Schedule) *CompileResponse {
	compact := compactPatterns(sc.Patterns)
	sk := &CompileResponse{
		SchedulerPatterns: compact,
		Patterns:          append([]string(nil), compact...),
		Cycles:            sc.Length(),
		Utilization:       sc.Utilization(),
		CycleOf:           sc.CycleOf,
		PatternOf:         sc.PatternOf,
	}
	sort.Strings(sk.Patterns)
	if lb, err := sched.LowerBound(g, sc.Patterns); err == nil {
		sk.LowerBound = lb
	}
	return sk
}

func compactPatterns(ps *pattern.Set) []string {
	if ps == nil {
		return nil
	}
	compact := make([]string, 0, ps.Len())
	for _, p := range ps.Patterns() {
		compact = append(compact, p.Compact())
	}
	return compact
}

// respKey identifies a cached result for the response memo: the backing
// array of its schedule's CycleOf, which every hit's schedule copy shares
// with the cache entry (pipeline's rebindReport copies the struct, not
// the slices). nil for an empty schedule. The memo holding the key keeps
// the array alive, so no other schedule can reuse its address while the
// entry exists.
func respKey(sc *sched.Schedule) *int {
	if len(sc.CycleOf) == 0 {
		return nil
	}
	return &sc.CycleOf[0]
}

// respCache memoises schedule skeletons by respKey (see Server.resps).
// Bounded with arbitrary eviction; an evicted entry merely
// costs recomputation on the next request. Entries pin only what the
// skeleton and key reference — slices shared with the result cache and
// the formatted patterns — not the schedule copies or their graphs.
type respCache struct {
	mu sync.RWMutex
	m  map[*int]*CompileResponse
}

const maxRespCacheEntries = 512

func (c *respCache) get(k *int) (*CompileResponse, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

func (c *respCache) put(k *int, v *CompileResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[*int]*CompileResponse)
	}
	if len(c.m) >= maxRespCacheEntries {
		for old := range c.m {
			delete(c.m, old)
			break
		}
	}
	c.m[k] = v
}

// errString compacts an error chain for the wire: internal package
// prefixes are kept (they are useful), newlines are not.
func errString(err error) string {
	return strings.ReplaceAll(err.Error(), "\n", " ")
}
