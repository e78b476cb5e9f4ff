package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
)

func newTestServer(t *testing.T, opts server.Options) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, client.New(ts.URL)
}

// fig4Select is the config under which the 5-node Fig. 4 graph compiles
// (its color set needs C=2, span unlimited — see the pipeline tests).
func fig4Select() *server.SelectConfig {
	return &server.SelectConfig{C: 2, Pdef: 2, Span: -1}
}

func TestCompileWorkload(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	resp, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Nodes != 24 {
		t.Errorf("nodes = %d, want 24", resp.Nodes)
	}
	if resp.Cycles <= 0 || len(resp.Patterns) == 0 {
		t.Errorf("degenerate result: %+v", resp)
	}
	if len(resp.CycleOf) != resp.Nodes || len(resp.PatternOf) != resp.Cycles {
		t.Errorf("schedule shape mismatch: %d cycleOf, %d patternOf", len(resp.CycleOf), len(resp.PatternOf))
	}

	// Same workload again: served from the sharded cache.
	resp2, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Error("second compile missed the cache")
	}
	if resp2.Cycles != resp.Cycles {
		t.Errorf("cached cycles %d != cold cycles %d", resp2.Cycles, resp.Cycles)
	}
}

func TestCompileInlineDFG(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	g, err := cliutil.Generate("fig4")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Compile(context.Background(), server.CompileRequest{
		Name:   "inline-fig4",
		DFG:    raw,
		Select: fig4Select(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "inline-fig4" || resp.Nodes != g.N() {
		t.Errorf("got %q/%d nodes, want inline-fig4/%d", resp.Name, resp.Nodes, g.N())
	}
}

// TestCompileMatchesPipeline is the acceptance bar: 64 concurrent client
// requests against the server, race-clean, each validated against the
// direct compiler answer for the same spec.
func TestCompileMatchesPipeline(t *testing.T) {
	specs := []string{"3dft", "fig4", "ndft:4", "fir:4,2", "matmul:2", "butterfly:3", "fft:8", "ndft:3"}

	// Ground truth via the compiler directly (no cache, no server).
	var jobs []pipeline.Spec
	for _, spec := range specs {
		g, err := cliutil.Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		job := pipeline.Spec{Name: spec, Graph: g, Select: patsel.Config{Pdef: 4}}
		if spec == "fig4" {
			job.Select = patsel.Config{C: 2, Pdef: 2, MaxSpan: patsel.SpanUnlimited}
		}
		jobs = append(jobs, job)
	}
	want, wantErrs := pipeline.NewCompiler(pipeline.Options{}).CompileAll(context.Background(), jobs, 0)
	for i, err := range wantErrs {
		if err != nil {
			t.Fatalf("ground truth %s failed: %v", specs[i], err)
		}
	}

	_, c := newTestServer(t, server.Options{})
	const clients = 64
	got := make([]*server.CompileResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specs[i%len(specs)]
			req := server.CompileRequest{Workload: spec}
			if spec == "fig4" {
				req.Select = fig4Select()
			}
			got[i], errs[i] = c.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d (%s): %v", i, specs[i%len(specs)], errs[i])
		}
		ref := want[i%len(specs)]
		if got[i].Cycles != ref.Schedule.Length() {
			t.Errorf("client %d (%s): %d cycles, pipeline says %d",
				i, specs[i%len(specs)], got[i].Cycles, ref.Schedule.Length())
		}
		if got[i].Nodes != ref.Graph.N() {
			t.Errorf("client %d (%s): %d nodes, want %d", i, specs[i%len(specs)], got[i].Nodes, ref.Graph.N())
		}
	}
}

func TestMalformedRequestsAre4xx(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(c.BaseURL()+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		body string
	}{
		{"not json", "this is not json"},
		{"empty object", "{}"},
		{"unknown field", `{"wrkload":"3dft"}`},
		{"unknown workload", `{"workload":"nope:9"}`},
		{"both sources", `{"workload":"3dft","dfg":{"nodes":[]}}`},
		{"bad pdef", `{"workload":"3dft","select":{"pdef":-2}}`},
		{"bad priority", `{"workload":"3dft","sched":{"priority":"F9"}}`},
		{"dfg edge out of range", `{"dfg":{"nodes":[{"name":"n0","color":"a"}],"edges":[[0,9]]}}`},
		{"dfg duplicate names", `{"dfg":{"nodes":[{"name":"x","color":"a"},{"name":"x","color":"a"}],"edges":[]}}`},
		{"dfg cyclic", `{"dfg":{"nodes":[{"name":"a","color":"a"},{"name":"b","color":"a"}],"edges":[[0,1],[1,0]]}}`},
		{"dfg operand out of range", `{"dfg":{"nodes":[{"name":"a","color":"a","op":"add","args":[{"node":7},{"node":8}]}],"edges":[]}}`},
	}
	for _, tc := range cases {
		if code := post(tc.body); code < 400 || code > 499 {
			t.Errorf("%s: status %d, want 4xx", tc.name, code)
		}
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"workload":"3dft","name":%q}`, strings.Repeat("x", 1024))
	resp, err := http.Post(c.BaseURL()+"/v1/compile", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestSyncNodeLimit(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxSyncNodes: 10})
	_, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"}) // 24 nodes
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413 APIError", err)
	}
	// The same graph is accepted on the async path.
	job, err := c.SubmitJob(context.Background(), server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(context.Background(), job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.JobDone || final.Result == nil {
		t.Fatalf("job finished %q (%s), want done", final.Status, final.Error)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()

	job, err := c.SubmitJob(ctx, server.CompileRequest{Workload: "ndft:4"})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || (job.Status != server.JobQueued && job.Status != server.JobRunning) {
		t.Fatalf("submit returned %+v", job)
	}
	final, err := c.WaitJob(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.JobDone || final.Result == nil {
		t.Fatalf("job ended %q (%s)", final.Status, final.Error)
	}
	if final.Result.Cycles <= 0 {
		t.Errorf("degenerate job result: %+v", final.Result)
	}

	if _, err := c.Job(ctx, "no-such-id"); err == nil {
		t.Error("unknown job id did not 404")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: %v, want 404", err)
	}
}

func TestJobErrorIsolation(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	// An empty graph decodes but cannot be compiled: the job fails, the
	// server keeps serving.
	raw := []byte(`{"name":"empty","nodes":[],"edges":[]}`)
	job, err := c.SubmitJob(ctx, server.CompileRequest{DFG: raw})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != server.JobFailed || final.Error == "" {
		t.Fatalf("empty graph job ended %q, want failed with an error", final.Status)
	}
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatalf("server unhealthy after failed job: %v", err)
	}
}

func TestDrain(t *testing.T) {
	s, c := newTestServer(t, server.Options{QueueWorkers: 2})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 8; i++ {
		job, err := c.SubmitJob(ctx, server.CompileRequest{Workload: fmt.Sprintf("ndft:%d", 3+i%3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	// Two concurrent Drain calls: both must block until the queue is
	// actually drained (http.Server.Shutdown semantics), then return nil.
	second := make(chan error, 1)
	go func() { second <- s.Drain(drainCtx) }()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("concurrent drain: %v", err)
	}
	// Every accepted job reached done; the status endpoint still serves.
	for _, id := range ids {
		j, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s after drain: %v", id, err)
		}
		if j.Status != server.JobDone {
			t.Errorf("job %s ended %q (%s), want done", id, j.Status, j.Error)
		}
	}
	// New submissions are refused while draining.
	_, err := c.SubmitJob(ctx, server.CompileRequest{Workload: "3dft"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %v, want 503", err)
	}
}

func TestHealthzAndWorkloads(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health status %q", h.Status)
	}

	ws, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(cliutil.Catalog()) {
		t.Errorf("workloads = %d entries, want %d", len(ws), len(cliutil.Catalog()))
	}

	// The scenario-corpus families must be served, and their examples must
	// compile remotely — the property that lets mpschedbench replay the
	// same corpus against a daemon that a local run compiles in-process.
	families := map[string]string{}
	for _, w := range ws {
		families[w.Name] = w.Example
	}
	for _, corpus := range []string{"random", "chain", "wide"} {
		example, ok := families[corpus]
		if !ok {
			t.Errorf("corpus family %q missing from /v1/workloads", corpus)
			continue
		}
		resp, err := c.Compile(ctx, server.CompileRequest{Workload: example})
		if err != nil {
			t.Errorf("corpus example %q does not compile remotely: %v", example, err)
			continue
		}
		if resp.Cycles == 0 {
			t.Errorf("corpus example %q compiled to zero cycles", example)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, job.ID, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, series := range []string{
		"mpschedd_requests_total",
		"mpschedd_compiles_total 3",
		"mpschedd_compile_errors_total 0",
		"mpschedd_cache_hits_total 2",
		"mpschedd_cache_misses_total 1",
		"mpschedd_jobs_submitted_total 1",
		"mpschedd_jobs_completed_total 1",
		"mpschedd_queue_depth",
		"mpschedd_queue_capacity",
		"mpschedd_jobs_per_second",
		"mpschedd_inflight_requests",
		"mpschedd_inflight_batch_jobs",
		`mpschedd_compile_seconds{outcome="ok",quantile="0.5"}`,
		`mpschedd_compile_seconds{outcome="ok",quantile="0.99"}`,
		`mpschedd_compile_seconds_count{outcome="ok"} 3`,
		`mpschedd_request_seconds{route="POST /v1/compile",codec="json",quantile="0.99"}`,
		"mpschedd_queue_wait_seconds_count 1",
		`mpschedd_stage_seconds{stage="cache",quantile="0.5"}`,
		`mpschedd_stage_seconds{stage="census",quantile="0.5"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q\n%s", series, text)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	s, c := newTestServer(t, server.Options{CacheEntries: -1})
	if s.Cache() != nil {
		t.Fatal("cache not disabled")
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		resp, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
	}
}

// TestPprofOffByDefault: the profiling endpoints must not exist unless
// the operator opted in (mpschedd -pprof), and must work when they did.
func TestPprofOffByDefault(t *testing.T) {
	s := server.New(server.Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without EnablePprof = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestPprofOptIn(t *testing.T) {
	s := server.New(server.Options{EnablePprof: true})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with EnablePprof = %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s returned an empty profile page", path)
		}
	}
	// The debug subtree must stay out of the request metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "pprof") {
		t.Error("/metrics mentions the pprof routes")
	}
}

// go tool pprof POSTs to /symbol; the opt-in registration must accept it.
func TestPprofSymbolAcceptsPost(t *testing.T) {
	s := server.New(server.Options{EnablePprof: true})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/debug/pprof/symbol", "text/plain", strings.NewReader("0x1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/pprof/symbol = %d, want 200", resp.StatusCode)
	}
}
