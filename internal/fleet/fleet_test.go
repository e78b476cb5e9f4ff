package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/resilience"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// testFleet is a router in front of n real in-process mpschedd servers.
type testFleet struct {
	rt       *Router
	rts      *httptest.Server // the router's HTTP front
	servers  []*server.Server
	backends []*httptest.Server
}

// newTestFleet wires up n live backends behind a router with fast
// probes and — unless overridden — no hedging, so cache-hit accounting
// in tests is exact (a hedged duplicate can double-compile a miss).
func newTestFleet(t *testing.T, n int, mutate func(*Options)) *testFleet {
	t.Helper()
	return newTestFleetOf(t, n, server.Options{}, mutate)
}

// newTestFleetOf is newTestFleet over backends built with srvOpts.
func newTestFleetOf(t *testing.T, n int, srvOpts server.Options, mutate func(*Options)) *testFleet {
	t.Helper()
	f := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := server.New(srvOpts)
		ts := httptest.NewServer(srv)
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, ts)
		urls[i] = ts.URL
	}
	opts := Options{
		Backends:      urls,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailAfter:     1,
		Resilience:    &client.ResilienceOptions{Breaker: &resilience.BreakerOptions{}},
	}
	if mutate != nil {
		mutate(&opts)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.rts = httptest.NewServer(rt)
	t.Cleanup(func() {
		f.rts.Close()
		rt.Close()
		for i, ts := range f.backends {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = f.servers[i].Drain(ctx)
			cancel()
		}
	})
	return f
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRouterCompileBothCodecsAndAffinity(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()

	for _, codec := range wire.Codecs() {
		c := client.New(f.rts.URL).WithCodec(codec)
		resp, err := c.Compile(ctx, server.CompileRequest{Workload: "fft:8"})
		if err != nil {
			t.Fatalf("[%s] Compile: %v", codec.Name(), err)
		}
		if resp.Cycles <= 0 || resp.TraceID == "" {
			t.Fatalf("[%s] degenerate response: cycles=%d trace=%q", codec.Name(), resp.Cycles, resp.TraceID)
		}
	}

	// Affinity: a second round of the same workloads must be served
	// entirely from the owning backends' L1 caches — if routing bounced
	// any key between nodes, its repeat would miss.
	c := client.New(f.rts.URL).WithCodec(wire.Binary)
	specs := make([]string, 8)
	for i := range specs {
		specs[i] = fmt.Sprintf("random:seed=%d,n=16", i+1)
	}
	var baseHits, baseMisses int64
	basePerBackend := make([]int64, len(f.servers))
	for i, srv := range f.servers {
		st := srv.Cache().Stats()
		baseHits += st.Hits
		baseMisses += st.Misses
		basePerBackend[i] = st.Misses
	}
	for round := 0; round < 2; round++ {
		for _, spec := range specs {
			if _, err := c.Compile(ctx, server.CompileRequest{Workload: spec}); err != nil {
				t.Fatalf("round %d %s: %v", round, spec, err)
			}
		}
	}
	var hits, misses int64
	var perBackend []int64
	for i, srv := range f.servers {
		st := srv.Cache().Stats()
		hits += st.Hits
		misses += st.Misses
		perBackend = append(perBackend, st.Misses-basePerBackend[i])
	}
	hits -= baseHits
	misses -= baseMisses
	if misses != int64(len(specs)) {
		t.Fatalf("fleet-wide misses = %d, want %d (each spec compiled exactly once)", misses, len(specs))
	}
	if hits < int64(len(specs)) {
		t.Fatalf("fleet-wide hits = %d, want ≥ %d (second round all warm)", hits, len(specs))
	}
	for i, m := range perBackend {
		if m >= int64(len(specs)) {
			t.Fatalf("backend %d compiled every spec — ring routed nothing to its peer", i)
		}
	}
}

func TestRouterBatchSplitMerge(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()

	var reqs []server.CompileRequest
	for i := 0; i < 12; i++ {
		reqs = append(reqs, server.CompileRequest{Workload: fmt.Sprintf("random:seed=%d,n=16", i+1)})
	}
	badIdx := len(reqs)
	reqs = append(reqs, server.CompileRequest{Workload: "no-such-workload:1"})
	dfgIdx := len(reqs)
	reqs = append(reqs, server.CompileRequest{
		DFG: json.RawMessage(`{"name":"pair","nodes":[{"name":"a","color":"a"},{"name":"b","color":"a"}],"edges":[[0,1]]}`),
	})

	for _, codec := range wire.Codecs() {
		c := client.New(f.rts.URL).WithCodec(codec)
		items, err := c.CompileBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("[%s] CompileBatch: %v", codec.Name(), err)
		}
		// The client already validated exactly one item per index; check
		// the per-job statuses survived the split/merge.
		byIndex := make([]wire.BatchItem, len(reqs))
		for _, it := range items {
			byIndex[it.Index] = it
		}
		if got := byIndex[badIdx].Status; got != http.StatusBadRequest {
			t.Fatalf("[%s] bad-workload job status = %d, want 400", codec.Name(), got)
		}
		if got := byIndex[dfgIdx].Status; got != http.StatusOK || byIndex[dfgIdx].Result == nil {
			t.Fatalf("[%s] inline-DFG job = %d/%v, want 200 with result", codec.Name(), got, byIndex[dfgIdx].Result)
		}
		for i := 0; i < 12; i++ {
			if byIndex[i].Status != http.StatusOK || byIndex[i].Result == nil {
				t.Fatalf("[%s] job %d status = %d (%s), want 200", codec.Name(), i, byIndex[i].Status, byIndex[i].Error)
			}
			if byIndex[i].Result.Cycles <= 0 {
				t.Fatalf("[%s] job %d has no cycles", codec.Name(), i)
			}
		}
	}
	// The 12 distinct graphs should have split across both nodes.
	for i, b := range f.rt.pool.backends {
		if b.forwarded.Load() == 0 {
			t.Fatalf("backend %d received no forwards — envelope was not split", i)
		}
	}
}

func TestRouterTraceAndDeadlineHop(t *testing.T) {
	// Stub backends capture exactly what crosses the hop.
	var mu sync.Mutex
	var gotTrace, gotDeadline string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotTrace = r.Header.Get("X-Mpsched-Trace")
		gotDeadline = r.Header.Get(wire.DeadlineHeader)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.CompileResponse{Name: "stub", Cycles: 3})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(wire.HealthResponse{Status: "ok"})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	rt, err := New(Options{
		Backends:      []string{stub.URL},
		ForwardCodec:  wire.JSON,
		ProbeInterval: 50 * time.Millisecond,
		Resilience:    &client.ResilienceOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	const budget = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	c := client.New(rts.URL)
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "fft:8", TraceID: "tracehop0001"}); err != nil {
		t.Fatalf("Compile through stub: %v", err)
	}

	mu.Lock()
	trace, dl := gotTrace, gotDeadline
	mu.Unlock()
	if trace != "tracehop0001" {
		t.Fatalf("backend saw trace %q, want the client's ID propagated", trace)
	}
	d, err := wire.ParseDeadline(dl)
	if err != nil || d <= 0 {
		t.Fatalf("backend deadline header %q: parsed %v, %v", dl, d, err)
	}
	if d >= budget {
		t.Fatalf("backend budget %v not decremented below the client's %v", d, budget)
	}

	// The router's own trace for the request must carry a "hop" span.
	waitFor(t, 2*time.Second, "hop span in router trace", func() bool {
		td, err := c.Trace(context.Background(), "tracehop0001")
		if err != nil {
			return false
		}
		for _, sp := range td.Spans {
			if sp.Name == "hop" {
				return true
			}
		}
		return false
	})
}

// TestRouterRebalanceRecompilesIdentically is the fleet contract without
// a router-side cache: after the owner dies, the survivor compiles the
// moved key itself, and its answer is the dead owner's answer.
func TestRouterRebalanceRecompilesIdentically(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	c := client.New(f.rts.URL)

	const spec = "fft:8"
	first, err := c.Compile(ctx, server.CompileRequest{Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Find the owner that served it and kill that node hard.
	owner := -1
	for i, b := range f.rt.pool.backends {
		if b.forwarded.Load() > 0 {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no backend recorded the forward")
	}
	survivor := 1 - owner
	f.backends[owner].CloseClientConnections()
	f.backends[owner].Close()
	waitFor(t, 3*time.Second, "owner demotion", func() bool { return !f.rt.pool.backends[owner].Up() })

	missesBefore := f.servers[survivor].Cache().Stats().Misses
	moved, err := c.Compile(ctx, server.CompileRequest{Workload: spec})
	if err != nil {
		t.Fatalf("compile after rebalance: %v", err)
	}
	if moved.CacheHit {
		t.Fatal("the moved key was answered from a cache; the survivor never saw it")
	}
	if got := f.servers[survivor].Cache().Stats().Misses; got != missesBefore+1 {
		t.Fatalf("survivor misses = %d, want %d (one compile of the moved key)", got, missesBefore+1)
	}
	if moved.Cycles != first.Cycles ||
		!reflect.DeepEqual(moved.CycleOf, first.CycleOf) ||
		!reflect.DeepEqual(moved.PatternOf, first.PatternOf) ||
		!reflect.DeepEqual(moved.Patterns, first.Patterns) {
		t.Fatalf("survivor's answer differs from the dead owner's:\n owner:    %d cycles %v %v %v\n survivor: %d cycles %v %v %v",
			first.Cycles, first.Patterns, first.CycleOf, first.PatternOf,
			moved.Cycles, moved.Patterns, moved.CycleOf, moved.PatternOf)
	}
}

// TestRouterAllBackendsDown pins the answer when no replica is left, even
// for a key the fleet has already compiled: 503 with Retry-After on
// /v1/compile, and a 503 item per job on /v1/batch.
func TestRouterAllBackendsDown(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	c := client.New(f.rts.URL)
	req := server.CompileRequest{Workload: "fft:8"}
	if _, err := c.Compile(ctx, req); err != nil {
		t.Fatal(err)
	}
	for i, ts := range f.backends {
		ts.CloseClientConnections()
		ts.Close()
		waitFor(t, 3*time.Second, fmt.Sprintf("backend %d demotion", i), func() bool { return !f.rt.pool.backends[i].Up() })
	}

	_, err := c.Compile(ctx, req)
	var api *client.APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compile with every backend down: err = %v, want APIError 503", err)
	}
	if api.RetryAfter <= 0 {
		t.Fatal("503 without Retry-After")
	}

	items, err := c.CompileBatch(ctx, []server.CompileRequest{req, {Workload: "3dft"}})
	if err != nil {
		t.Fatalf("batch with every backend down: %v", err)
	}
	for _, it := range items {
		if it.Status != http.StatusServiceUnavailable || it.Result != nil {
			t.Fatalf("batch item %d = %d (%s), want 503 without a result", it.Index, it.Status, it.Error)
		}
	}
}

// TestRouterOversizedBodies413 holds every body-carrying route to the
// daemon's answer for a body over the limit: 413, not 400.
func TestRouterOversizedBodies413(t *testing.T) {
	f := newTestFleet(t, 1, func(o *Options) { o.MaxBodyBytes = 64 })
	body := `{"workload":"fft:8","name":"` + strings.Repeat("x", 128) + `"}`
	for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
		b := body
		if route == "/v1/batch" {
			b = `{"jobs":[` + body + `]}`
		}
		resp, err := http.Post(f.rts.URL+route, "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", route, len(b), resp.StatusCode)
		}
	}
}

// TestRetiredBaseFingerprintRejected checks that the retired delta-compile
// request field is a client error at the daemon and through the router,
// caught by the decoders' existing checks: JSON rejects it as an unknown
// field, binary rejects the flag bit 0x80 that carried it.
func TestRetiredBaseFingerprintRejected(t *testing.T) {
	f := newTestFleet(t, 1, nil)
	var frame bytes.Buffer
	if err := wire.Binary.EncodeRequest(&frame, &wire.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}
	flagged := frame.Bytes()
	flagged[4] |= 0x80 // "MPQ", version, then the request flags
	for _, target := range []struct{ name, url string }{
		{"daemon", f.backends[0].URL},
		{"router", f.rts.URL},
	} {
		for _, tc := range []struct {
			codec wire.Codec
			body  []byte
			why   string
		}{
			{wire.JSON, []byte(`{"workload":"3dft","base_fingerprint":"5f2a"}`), `unknown field "base_fingerprint"`},
			{wire.Binary, flagged, "unknown request flags 0x80"},
		} {
			resp, err := http.Post(target.url+"/v1/compile", tc.codec.ContentType(), bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e wire.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, tc.why) {
				t.Fatalf("%s, %s: status %d, error %q (%v); want 400 naming %s",
					target.name, tc.codec.Name(), resp.StatusCode, e.Error, err, tc.why)
			}
		}
	}
}

func TestRouterPassesBackpressureThrough(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "shedding"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(wire.HealthResponse{Status: "ok"})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()
	rt, err := New(Options{
		Backends:     []string{stub.URL},
		ForwardCodec: wire.JSON,
		Resilience:   &client.ResilienceOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	_, err = client.New(rts.URL).Compile(context.Background(), server.CompileRequest{Workload: "fft:8"})
	var api *client.APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if api.RetryAfter != 7*time.Second {
		t.Fatalf("Retry-After = %v, want 7s preserved through the hop", api.RetryAfter)
	}
	if api.Message != "shedding" {
		t.Fatalf("message = %q, want backend's relayed", api.Message)
	}
	if !rt.pool.backends[0].Up() {
		t.Fatal("a 429 demoted the backend — backpressure proves it alive")
	}
}

func TestRouterAsyncJobsThroughRouter(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.New(f.rts.URL)

	job, err := c.SubmitJob(ctx, server.CompileRequest{Workload: "fft:8"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(job.ID, "-") {
		t.Fatalf("job ID %q lacks the backend prefix", job.ID)
	}
	done, err := c.WaitJob(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != server.JobDone || done.Result == nil || done.Result.Cycles <= 0 {
		t.Fatalf("job finished %s with result %+v", done.Status, done.Result)
	}
	if _, err := c.Job(ctx, "not-a-job"); err == nil {
		t.Fatal("bogus job ID should 404")
	}
}

func TestRouterMetricsSurface(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	c := client.New(f.rts.URL)
	for i := 0; i < 4; i++ {
		if _, err := c.Compile(ctx, server.CompileRequest{Workload: fmt.Sprintf("random:seed=%d,n=16", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("mpschedrouter_backends_up"); !ok || v != 2 {
		t.Fatalf("mpschedrouter_backends_up = %v,%v, want 2", v, ok)
	}
	upSamples := 0
	for _, s := range m {
		if s.Name == "mpschedrouter_backend_up" {
			upSamples++
			if s.Value != 0 && s.Value != 1 {
				t.Fatalf("backend_up sample %v not in {0,1}", s.Value)
			}
			if s.Labels["backend"] == "" {
				t.Fatal("backend_up sample missing the backend label")
			}
		}
	}
	if upSamples != 2 {
		t.Fatalf("backend_up samples = %d, want one per backend", upSamples)
	}
	if m.Sum("mpschedrouter_forwarded_total") < 4 {
		t.Fatalf("forwarded_total = %v, want ≥ 4", m.Sum("mpschedrouter_forwarded_total"))
	}
	if _, ok := m.Value("mpschedrouter_request_seconds_count", "route", "POST /v1/compile"); !ok {
		t.Fatal("request latency summary missing for POST /v1/compile")
	}
	// The graph store: four specs generated, then one of them again.
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "random:seed=1,n=16"}); err != nil {
		t.Fatal(err)
	}
	if m, err = c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"mpschedrouter_graph_cache_hits_total":      1,
		"mpschedrouter_graph_cache_misses_total":    4,
		"mpschedrouter_graph_cache_evictions_total": 0,
		"mpschedrouter_graph_cache_entries":         4,
	} {
		if v, ok := m.Value(name); !ok || v != want {
			t.Errorf("%s = %v,%v, want %v", name, v, ok, want)
		}
	}
	// The router health body must expose the fleet view.
	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
}

// TestRouterKillBackendMidStorm is the rebalance-correctness gate: a
// mixed compile/batch storm through a 2-node fleet, one node killed
// hard mid-storm. The fleet contract: zero client-visible errors other
// than 429 backpressure, and every batch envelope resolves to exactly
// one item per job (the client's validateBatch enforces that on every
// successful call — a duplicate or lost item fails the call, which
// would surface here as a non-429 error).
func TestRouterKillBackendMidStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test")
	}
	for _, codec := range wire.Codecs() {
		codec := codec
		t.Run(codec.Name(), func(t *testing.T) {
			f := newTestFleet(t, 2, nil)
			specs := make([]string, 16)
			for i := range specs {
				specs[i] = fmt.Sprintf("random:seed=%d,n=16", i+1)
			}
			// Warm every key so failover has cache-height to stand on.
			warm := client.New(f.rts.URL).WithCodec(codec)
			for _, spec := range specs {
				if _, err := warm.Compile(context.Background(), server.CompileRequest{Workload: spec}); err != nil {
					t.Fatalf("warm %s: %v", spec, err)
				}
			}

			var bad sync.Map
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := client.New(f.rts.URL).WithCodec(codec)
					ctx := context.Background()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						spec := specs[(w*7+i)%len(specs)]
						if i%3 == 0 {
							reqs := make([]server.CompileRequest, 8)
							for j := range reqs {
								reqs[j] = server.CompileRequest{Workload: specs[(w+i+j)%len(specs)]}
							}
							items, err := c.CompileBatch(ctx, reqs)
							if err != nil {
								if !only429(err) {
									bad.Store(fmt.Sprintf("batch w%d i%d", w, i), err)
								}
								continue
							}
							for _, it := range items {
								if it.Status != http.StatusOK && it.Status != http.StatusTooManyRequests {
									bad.Store(fmt.Sprintf("item w%d i%d idx%d", w, i, it.Index),
										fmt.Errorf("status %d: %s", it.Status, it.Error))
								}
							}
						} else if _, err := c.Compile(ctx, server.CompileRequest{Workload: spec}); err != nil && !only429(err) {
							bad.Store(fmt.Sprintf("compile w%d i%d", w, i), err)
						}
					}
				}(w)
			}

			time.Sleep(400 * time.Millisecond)
			f.backends[1].CloseClientConnections()
			f.backends[1].Close()
			time.Sleep(800 * time.Millisecond)
			close(stop)
			wg.Wait()

			bad.Range(func(k, v any) bool {
				t.Errorf("%v: %v", k, v)
				return true
			})
			if !f.rt.pool.backends[0].Up() {
				t.Error("survivor was demoted")
			}
			if f.rt.pool.backends[1].Up() {
				t.Error("killed backend still in rotation after the storm")
			}
			if f.rt.pool.demotions.Load() == 0 {
				t.Error("no demotion recorded")
			}
		})
	}
}

func only429(err error) bool {
	var api *client.APIError
	return errors.As(err, &api) && api.StatusCode == http.StatusTooManyRequests
}

// TestRouterBadGraphFailsOnlyItsBatchItem: through the router, a batch
// job whose inline graph does not decode is its own 400 item in either
// codec, with the same text, and its neighbour still compiles.
func TestRouterBadGraphFailsOnlyItsBatchItem(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	g := dfg.NewGraph("loop")
	a := g.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := g.MustAddNode(dfg.Node{Name: "b", Color: "a"})
	g.MustAddDep(a, b)
	g.MustAddDep(b, a)
	var texts []string
	for _, codec := range wire.Codecs() {
		items, err := client.New(f.rts.URL).WithCodec(codec).CompileBatch(context.Background(),
			[]server.CompileRequest{{Workload: "3dft"}, {Graph: g}})
		if err != nil {
			t.Fatalf("%s envelope: %v", codec.Name(), err)
		}
		sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
		if items[0].Status != http.StatusOK || items[1].Status != http.StatusBadRequest {
			t.Fatalf("%s envelope: statuses %d, %d; want 200, 400", codec.Name(), items[0].Status, items[1].Status)
		}
		texts = append(texts, items[1].Error)
	}
	if texts[0] != texts[1] || !strings.Contains(texts[0], `dfg "loop": dependency cycle`) {
		t.Errorf("bad-graph item text differs by codec:\n json:   %s\n binary: %s", texts[0], texts[1])
	}
}

// TestRouterBadGraphSameAnswerOnEveryRoute: through the router, a single
// request whose inline graph does not decode is a 400 at /v1/compile and
// at /v1/jobs, whose text is the graph's own error in either codec.
func TestRouterBadGraphSameAnswerOnEveryRoute(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	g := dfg.NewGraph("loop")
	a := g.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := g.MustAddNode(dfg.Node{Name: "b", Color: "a"})
	g.MustAddDep(a, b)
	g.MustAddDep(b, a)
	ctx := context.Background()
	for _, route := range []string{"/v1/compile", "/v1/jobs"} {
		var texts []string
		for _, codec := range wire.Codecs() {
			c, req := client.New(f.rts.URL).WithCodec(codec), server.CompileRequest{Graph: g}
			var err error
			if route == "/v1/compile" {
				_, err = c.Compile(ctx, req)
			} else {
				_, err = c.SubmitJob(ctx, req)
			}
			var api *client.APIError
			if !errors.As(err, &api) || api.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: %v, want a 400", codec.Name(), route, err)
			}
			texts = append(texts, api.Message)
		}
		if texts[0] != texts[1] || !strings.Contains(texts[0], `dfg "loop": dependency cycle`) {
			t.Errorf("%s: bad-graph text differs by codec:\n json:   %s\n binary: %s", route, texts[0], texts[1])
		}
	}
}

// TestRouterFieldChecksMatchDaemon: through the router, a request the
// daemon rejects before any compile — a bad field next to an unknown
// workload, no graph at all, an inline graph sent as JSON null, a body
// with data after it — gets the daemon's own status and body, in either
// codec, at /v1/compile, at /v1/jobs and as a /v1/batch item (or, for
// trailing data, as the answer to the whole envelope).
func TestRouterFieldChecksMatchDaemon(t *testing.T) {
	f := newTestFleet(t, 1, nil)
	for _, tc := range []struct {
		name     string
		req      server.CompileRequest
		want     string
		trailing string // follows the encoded body
	}{
		{"bad field, unknown workload", server.CompileRequest{Workload: "nope:9", Select: &server.SelectConfig{Pdef: -1}}, "select.pdef: -1 < 0", ""},
		{"no graph", server.CompileRequest{}, "workload: provide a graph", ""},
		{"null graph", server.CompileRequest{DFG: json.RawMessage("null")}, "workload: provide a graph", ""},
		{"too many spans", server.CompileRequest{Workload: "3dft", Spans: make([]int, 17)}, "spans: 17 spans > 16", ""},
		{"trailing data", server.CompileRequest{Workload: "3dft"}, "trailing", "\ntrailing"},
	} {
		for _, codec := range wire.Codecs() {
			var single, batch bytes.Buffer
			if err := codec.EncodeRequest(&single, &tc.req); err != nil {
				t.Fatal(err)
			}
			if err := codec.EncodeBatch(&batch, &wire.BatchRequest{Jobs: []wire.CompileRequest{tc.req}}); err != nil {
				t.Fatal(err)
			}
			single.WriteString(tc.trailing)
			batch.WriteString(tc.trailing)
			for route, body := range map[string][]byte{"/v1/compile": single.Bytes(), "/v1/jobs": single.Bytes(), "/v1/batch": batch.Bytes()} {
				post := func(base string) (int, string) {
					resp, err := http.Post(base+route, codec.ContentType(), bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					raw, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Fatal(err)
					}
					return resp.StatusCode, string(raw)
				}
				ds, db := post(f.backends[0].URL)
				rs, rb := post(f.rts.URL)
				if ds != rs || db != rb {
					t.Errorf("%s, %s %s: daemon %d %q, router %d %q", tc.name, codec.Name(), route, ds, db, rs, rb)
				}
				if !strings.Contains(db, tc.want) {
					t.Errorf("%s, %s %s: daemon answered %d %q, want it to say %q", tc.name, codec.Name(), route, ds, db, tc.want)
				}
			}
		}
	}
}

// TestBatchSharedGraphCold: 16 jobs of one envelope carry one inline
// graph at different select.pdef to daemons with the result cache off,
// so each daemon compiles its jobs at once on the one graph its envelope
// decodes to. Every job answers as it does compiled alone, at a daemon
// and through the router (whose sub-envelopes share the graph too); run
// with -race, this checks the graph's lazy analyses under that sharing.
func TestBatchSharedGraphCold(t *testing.T) {
	f := newTestFleetOf(t, 2, server.Options{CacheEntries: -1}, nil)
	ctx := context.Background()
	g, err := cliutil.Generate("3dft")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]server.CompileRequest, 16)
	for i := range jobs {
		jobs[i] = server.CompileRequest{Graph: g, Select: &server.SelectConfig{Pdef: i + 1}}
	}
	for _, target := range []string{f.backends[0].URL, f.rts.URL} {
		for _, codec := range wire.Codecs() {
			c := client.New(target).WithCodec(codec)
			items, err := c.CompileBatch(ctx, jobs)
			if err != nil {
				t.Fatalf("%s %s: %v", target, codec.Name(), err)
			}
			for _, it := range items {
				alone, err := c.Compile(ctx, jobs[it.Index])
				if err != nil || it.Status != http.StatusOK {
					t.Fatalf("%s %s job %d: item %d %q, alone %v", target, codec.Name(), it.Index, it.Status, it.Error, err)
				}
				got := it.Result
				if got.Cycles != alone.Cycles || !reflect.DeepEqual(got.Patterns, alone.Patterns) ||
					!reflect.DeepEqual(got.CycleOf, alone.CycleOf) || !reflect.DeepEqual(got.Census, alone.Census) {
					t.Errorf("%s %s pdef %d: batch compiled %v in %d cycles, alone %v in %d",
						target, codec.Name(), it.Index+1, got.Patterns, got.Cycles, alone.Patterns, alone.Cycles)
				}
			}
		}
	}
}

// TestRouterTracesPageParam: ?n= on the router's /debug/traces is a
// whole integer in [1, 1024]; anything else is a 400.
func TestRouterTracesPageParam(t *testing.T) {
	f := newTestFleet(t, 1, nil)
	for q, want := range map[string]int{
		"5abc": http.StatusBadRequest, "3.9": http.StatusBadRequest, "0": http.StatusBadRequest,
		"1025": http.StatusBadRequest, "x": http.StatusBadRequest,
		"1": http.StatusOK, "1024": http.StatusOK,
	} {
		resp, err := http.Get(f.rts.URL + "/debug/traces?n=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("?n=%s: status %d, want %d", q, resp.StatusCode, want)
		}
	}
}
