package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/resilience"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// Options configures a Router. The zero value is unusable — Backends is
// required — but every other field defaults sensibly.
type Options struct {
	// Backends is the fleet: one mpschedd base URL per node.
	Backends []string
	// ForwardCodec is the codec of the router→backend leg, independent of
	// whatever the client speaks; nil means wire.Binary (the compact
	// framing also carries per-job trace IDs and deadlines inline, which
	// the JSON leg cannot). The client-facing leg negotiates per request
	// exactly like mpschedd does.
	ForwardCodec wire.Codec
	// Resilience overrides the forwarding clients' policy. Nil takes the
	// fleet default: breakers and hedging per backend, but NO client-level
	// retries — replica failover is the router's own loop, and a client
	// quietly re-sending to a dead node would hide the demotion signal.
	Resilience *client.ResilienceOptions
	// VNodes is the ring's virtual-node count per backend; ≤ 0 means
	// DefaultVNodes.
	VNodes int
	// ProbeInterval is the /healthz poll period per backend; ≤ 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; ≤ 0 means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive transport-class failures demote a
	// backend; ≤ 0 means DefaultFailAfter.
	FailAfter int
	// ForwardTimeout bounds one forward attempt when the request carries
	// no tighter deadline of its own; ≤ 0 means DefaultForwardTimeout.
	ForwardTimeout time.Duration
	// MaxBodyBytes bounds request bodies; ≤ 0 means the server default.
	MaxBodyBytes int64
	// MaxBatchJobs caps one /v1/batch envelope; ≤ 0 means the server
	// default.
	MaxBatchJobs int
	// TraceBuffer sizes the /debug/traces ring; ≤ 0 means the server
	// default.
	TraceBuffer int
	// SlowTrace is the slow-trace log threshold; 0 means the server
	// default, negative disables.
	SlowTrace time.Duration
	// Logger receives the slow-trace log; nil means slog.Default().
	Logger *slog.Logger
}

// DefaultForwardTimeout bounds a forward attempt for requests without
// their own deadline: long enough for any sane compile, short enough
// that a hung backend cannot pin a client goroutine forever.
const DefaultForwardTimeout = 30 * time.Second

// Router is the fleet front end: an http.Handler speaking mpschedd's
// /v1 wire that consistent-hashes compiles across the backend pool.
// Construct with New, stop the probers with Close.
type Router struct {
	opts    Options
	pool    *pool
	metrics *routerMetrics
	start   time.Time
	mux     *http.ServeMux
	// root is the client the per-backend forwarding clients derive from;
	// they share its resilience layer, so its stats are fleet-wide.
	root *client.Client
	// graphs keeps the graphs requests resolve to — workload specs by
	// their text, inline graphs by their exact wire bytes — so routing a
	// repeated graph decodes, validates and fingerprints it once. They
	// serve only for ring placement: the forward carries the graph, and
	// the backend resolves its own.
	graphs *wire.GraphStore
}

// New builds a router over opts.Backends and starts its health probers.
func New(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("fleet: at least one backend is required")
	}
	fwd := opts.ForwardCodec
	if fwd == nil {
		fwd = wire.Binary
	}
	res := client.ResilienceOptions{
		Breaker: &resilience.BreakerOptions{},
		Hedge:   &resilience.HedgerOptions{Quantile: 0.99, MaxDelay: 5 * time.Millisecond},
	}
	if opts.Resilience != nil {
		res = *opts.Resilience
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	if opts.MaxBatchJobs <= 0 {
		opts.MaxBatchJobs = server.DefaultMaxBatchJobs
	}
	if opts.TraceBuffer <= 0 {
		opts.TraceBuffer = server.DefaultTraceBuffer
	}
	if opts.SlowTrace == 0 {
		opts.SlowTrace = server.DefaultSlowTrace
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = DefaultForwardTimeout
	}
	rt := &Router{
		opts:   opts,
		start:  time.Now(),
		root:   client.New(opts.Backends[0]).WithResilience(res),
		graphs: wire.NewGraphStore(),
	}
	rt.pool = newPool(rt.root, opts.Backends, fwd, opts.ProbeTimeout, opts.VNodes, opts.FailAfter)
	rt.pool.run(opts.ProbeInterval)
	rt.metrics = newRouterMetrics(rt.pool, rt.root, rt.graphs, rt.start)

	// The same edge mpschedd serves through, so a trace ID set by the
	// client identifies the request at every hop.
	rt.mux = http.NewServeMux()
	edge := obs.NewEdge(rt.mux, obs.NewRecorder(opts.TraceBuffer, opts.SlowTrace, opts.Logger),
		rt.metrics.requests, rt.metrics.inflight,
		func(route, _ string) *obs.LockedHistogram { return rt.metrics.requestSeconds.With(route) })
	edge.Route("POST /v1/compile", true, rt.handleCompile)
	edge.Route("POST /v1/batch", true, rt.handleBatch)
	edge.Route("POST /v1/jobs", true, rt.handleSubmitJob)
	edge.Route("GET /v1/jobs/{id}", false, rt.handleGetJob)
	edge.Route("GET /v1/workloads", false, wire.ServeWorkloads)
	edge.Route("GET /healthz", false, rt.handleHealthz)
	edge.Route("GET /metrics", false, rt.metrics.reg.ServeHTTP)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Close stops the health probers. In-flight requests are unaffected.
func (rt *Router) Close() {
	rt.pool.close()
}

// Backends exposes the pool for tests and status reporting.
func (rt *Router) Backends() []*Backend { return rt.pool.backends }

// ---- response plumbing ----

// writeAPIError relays a backend's non-2xx answer verbatim — status,
// message and the Retry-After pacing hint — so backpressure (429) and
// request faults (400/413/422) look identical through the hop.
func (rt *Router) writeAPIError(w http.ResponseWriter, api *client.APIError) {
	if api.RetryAfter > 0 {
		secs := int(api.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	wire.WriteJSON(w, api.StatusCode, wire.ErrorResponse{Error: api.Message})
}

// errNoBackend is the router's own 503: every replica for the key is
// down.
var errNoBackend = errors.New("no backend available for this request; retry later")

func (rt *Router) writeExpired(w http.ResponseWriter, budget time.Duration) {
	wire.WriteError(w, http.StatusGatewayTimeout,
		fmt.Errorf("deadline expired %v before the forward started", -budget))
}

// ---- request key resolution ----

// requestKey resolves a decoded compile request to its routing key (see
// routeKey). Failures are client faults (400), checked in the daemon's
// order so both answer alike: an inline graph that did not decode, then
// the daemon's field checks, then the workload spec.
func (rt *Router) requestKey(req *wire.CompileRequest) (string, error) {
	if err := req.GraphErr(); err != nil {
		return "", err
	}
	if err := server.ValidateRequest(*req); err != nil {
		return "", err
	}
	g := req.Graph
	if req.Workload != "" {
		// A Router literal built without New has no graph store and
		// generates every time.
		var err error
		if g, err = rt.graphs.Workload(req.Workload); err != nil {
			return "", err
		}
	}
	return routeKey(g.Fingerprint(), req), nil
}

// routeKey places one compile on the ring: the graph fingerprint plus
// the name, the workload spec and every compile parameter. Requests with
// equal keys land on the same backend, so a repeat hits that backend's
// result cache.
func routeKey(fp string, req *wire.CompileRequest) string {
	var b strings.Builder
	b.Grow(len(fp) + len(req.Name) + len(req.Workload) + 64)
	b.WriteString(fp)
	b.WriteByte('|')
	b.WriteString(req.Name)
	b.WriteByte('|')
	b.WriteString(req.Workload)
	b.WriteByte('|')
	if s := req.Select; s != nil {
		b.WriteString(strconv.Itoa(s.C))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.Pdef))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.Span))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(s.Epsilon, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(s.Alpha, 'g', -1, 64))
	}
	b.WriteByte('|')
	if s := req.Sched; s != nil {
		b.WriteString(s.Priority)
		b.WriteByte(',')
		b.WriteString(s.Tie)
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(s.Seed, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(s.SwitchPenalty, 10))
	}
	b.WriteByte('|')
	b.WriteString(req.StopAfter)
	b.WriteByte('|')
	b.WriteByte('|') // empty retired field, kept so no key moves on the ring across the upgrade
	for _, sp := range req.Spans {
		b.WriteString(strconv.Itoa(sp))
		b.WriteByte(',')
	}
	return b.String()
}

// ---- forwarding core ----

// errFailover is the sentinel attempt returns when the forward failed
// in a way the next ring replica might serve: transport faults, backend
// 5xx, an open per-backend breaker.
var errFailover = errors.New("fleet: attempt failed, try the next replica")

// attempt runs one forward against b — call, inside a "hop" span — and
// counts it, rerouted when b is not the first replica tried. call's
// context is bounded by what is left of budget since start, or by the
// forward ceiling when that is sooner or budget is 0; the client
// re-emits that deadline as X-Mpsched-Deadline, so the budget reaches
// the backend already decremented by the router's elapsed time.
//
// nil is success. Anything the backend answered below 500 passes
// through unchanged as its *APIError: the backend is alive, and the
// fault is the request's. Transport-class faults count toward demoting
// b and 5xx does not — mpschedd isolates panics per request, so a 500
// indicts the request, not the node — but both return errFailover: try
// the next replica. Any other error is terminal: the client's own
// context died.
func (rt *Router) attempt(ctx context.Context, tr *obs.Trace, b *Backend, budget time.Duration, start time.Time, rerouted bool, call func(context.Context) error) error {
	timeout := rt.opts.ForwardTimeout
	if rem := budget - time.Since(start); budget > 0 && rem < timeout {
		timeout = rem
	}
	fctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hop := tr.Begin("hop")
	err := call(fctx)
	hop.End()
	b.forwarded.Add(1)
	if rerouted {
		b.rerouted.Add(1)
	}
	if err == nil {
		rt.pool.noteSuccess(b)
		return nil
	}
	if ctx.Err() != nil {
		// The client's own context died (gone away, or out of budget) —
		// no replica can help.
		return err
	}
	var api *client.APIError
	if errors.As(err, &api) {
		if api.StatusCode < 500 {
			rt.pool.noteSuccess(b) // answered ⇒ alive, even when saying no
			return err
		}
		b.errored.Add(1)
		return errFailover
	}
	b.errored.Add(1)
	if errors.Is(err, resilience.ErrBreakerOpen) {
		// The per-backend breaker is already a debounced health verdict.
		rt.pool.demote(b)
	} else {
		// Transport fault (dial refused, reset, attempt timeout).
		rt.pool.noteFailure(b)
	}
	return errFailover
}

// ---- handlers ----

// decodeCompile is the preamble /v1/compile and /v1/jobs share: read
// the request, adopting an in-frame trace ID, answer an expired budget
// (504) and resolve the routing key (400). The request comes back ready
// to forward: under the trace's ID, its budget returned and cleared from
// the frame, which the attempt context's header carries instead. When
// it returns false it has already answered the request.
func (rt *Router) decodeCompile(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (req wire.CompileRequest, key string, budget time.Duration, ok bool) {
	dt := tr.Begin("decode")
	req, ok = wire.ReadRequest(w, r, rt.opts.MaxBodyBytes, rt.graphs, tr.AdoptID)
	dt.End()
	if !ok {
		return req, "", 0, false
	}
	if req.Deadline < 0 {
		rt.writeExpired(w, req.Deadline)
		return req, "", 0, false
	}
	key, err := rt.requestKey(&req)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return req, "", 0, false
	}
	budget = req.Deadline
	req.TraceID, req.Deadline = tr.ID(), 0
	return req, key, budget, true
}

func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	req, key, budget, ok := rt.decodeCompile(w, r, tr)
	if !ok {
		return
	}
	start := time.Now()
	seq := rt.pool.ring.Load().sequence(fnv1a64(key), make([]int, 0, len(rt.pool.backends)))
	for i, bi := range seq {
		b := rt.pool.backends[bi]
		if i > 0 && !b.Up() {
			continue // demoted since the ring snapshot
		}
		if budget > 0 && time.Since(start) >= budget {
			rt.writeExpired(w, budget-time.Since(start))
			return
		}
		var resp *wire.CompileResponse
		err := rt.attempt(r.Context(), tr, b, budget, start, i > 0, func(ctx context.Context) (err error) {
			resp, err = b.c.Compile(ctx, req)
			return err
		})
		if err == nil {
			wire.WriteResponse(w, r, resp)
			return
		}
		if errors.Is(err, errFailover) {
			continue
		}
		var api *client.APIError
		if errors.As(err, &api) {
			rt.writeAPIError(w, api)
			return
		}
		// The client's context died mid-forward; status for the log only.
		wire.WriteError(w, http.StatusRequestTimeout, err)
		return
	}
	// Every replica for the key is down.
	wire.WriteRetryLater(w, http.StatusServiceUnavailable, errNoBackend)
}

func (rt *Router) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	req, key, budget, ok := rt.decodeCompile(w, r, tr)
	if !ok {
		return
	}
	owner, ok := rt.pool.ring.Load().owner(fnv1a64(key))
	if !ok {
		wire.WriteRetryLater(w, http.StatusServiceUnavailable, errNoBackend)
		return
	}
	// Submissions are not idempotent — a blind replay could enqueue the
	// job twice — so they go to the owner only, no failover.
	b := rt.pool.backends[owner]
	var resp *wire.JobResponse
	var callErr error
	err := rt.attempt(r.Context(), tr, b, budget, time.Now(), false, func(ctx context.Context) error {
		resp, callErr = b.c.SubmitJob(ctx, req)
		return callErr
	})
	if err != nil {
		var api *client.APIError
		if errors.As(err, &api) {
			rt.writeAPIError(w, api)
			return
		}
		wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s unreachable: %w", b.URL, callErr))
		return
	}
	// The fleet-wide job ID carries the owning backend: "<idx>-<id>".
	// Backend IDs are bare hex, so the first dash splits unambiguously.
	resp.ID = strconv.Itoa(owner) + "-" + resp.ID
	wire.WriteJSON(w, http.StatusAccepted, resp)
}

func (rt *Router) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	prefix, rest, found := strings.Cut(id, "-")
	idx, err := strconv.Atoi(prefix)
	if !found || err != nil || idx < 0 || idx >= len(rt.pool.backends) {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	b := rt.pool.backends[idx]
	resp, err := b.c.Job(r.Context(), rest)
	if err != nil {
		var api *client.APIError
		if errors.As(err, &api) {
			rt.writeAPIError(w, api)
			return
		}
		wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s unreachable: %w", b.URL, err))
		return
	}
	resp.ID = id
	wire.WriteJSON(w, http.StatusOK, resp)
}

// routerHealth is the body of the router's GET /healthz. Status stays
// "ok" while the router itself serves — a degraded fleet is reported in
// backends_up, and taking the router out of rotation over one dead
// backend would amplify the failure.
type routerHealth struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Backends      int     `json:"backends"`
	BackendsUp    int     `json:"backends_up"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, routerHealth{
		Status:        "ok",
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Backends:      len(rt.pool.backends),
		BackendsUp:    rt.pool.upCount(),
	})
}
