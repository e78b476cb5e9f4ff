package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// postRaw issues one request at the curl level — explicit body bytes,
// Content-Type and X-Mpsched-Trace header — and returns the response
// with its body read, so tests can pin the header contract exactly as a
// client on the wire sees it.
func postRaw(t *testing.T, url, contentType, traceID string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestTraceHeaderEcho pins the trace contract on every compile-path
// route in both codecs: the server echoes the client's X-Mpsched-Trace
// ID on the response, and the response body carries the same ID where
// the shape has a trace field.
func TestTraceHeaderEcho(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	base := c.BaseURL()
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
			id := fmt.Sprintf("trace-%s%s", codec.Name(), strings.ReplaceAll(route, "/", "-"))
			var body bytes.Buffer
			var err error
			if route == "/v1/batch" {
				err = codec.EncodeBatch(&body, &wire.BatchRequest{Jobs: []server.CompileRequest{
					{Workload: "3dft"}, {Workload: "fft:8"},
				}})
			} else {
				err = codec.EncodeRequest(&body, &server.CompileRequest{Workload: "3dft"})
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, data := postRaw(t, base+route, codec.ContentType(), id, body.Bytes())
			if resp.StatusCode/100 != 2 {
				t.Fatalf("%s %s: status %d: %s", codec.Name(), route, resp.StatusCode, data)
			}
			if got := resp.Header.Get(obs.TraceHeader); got != id {
				t.Errorf("%s %s: echoed trace %q, want %q", codec.Name(), route, got, id)
			}
			switch route {
			case "/v1/compile":
				var cr server.CompileResponse
				if err := codec.DecodeResponse(bytes.NewReader(data), &cr); err != nil {
					t.Fatalf("%s compile response: %v", codec.Name(), err)
				}
				if cr.TraceID != id {
					t.Errorf("%s compile body trace_id = %q, want %q", codec.Name(), cr.TraceID, id)
				}
			case "/v1/jobs":
				var jr server.JobResponse
				if err := json.Unmarshal(data, &jr); err != nil {
					t.Fatalf("%s jobs response: %v", codec.Name(), err)
				}
				if jr.TraceID != id {
					t.Errorf("%s jobs body trace_id = %q, want %q", codec.Name(), jr.TraceID, id)
				}
			}
		}
	}
}

// TestBinaryInFrameTraceAdopted: the binary codec carries the trace ID
// inside the request frame; with no header at all, the server must adopt
// the framed ID and still echo it on the response header.
func TestBinaryInFrameTraceAdopted(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	var body bytes.Buffer
	req := server.CompileRequest{Workload: "3dft", TraceID: "framed-trace-01"}
	if err := wire.Binary.EncodeRequest(&body, &req); err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, c.BaseURL()+"/v1/compile", wire.Binary.ContentType(), "", body.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "framed-trace-01" {
		t.Errorf("echoed trace %q, want the in-frame id framed-trace-01", got)
	}
	var cr server.CompileResponse
	if err := wire.Binary.DecodeResponse(bytes.NewReader(data), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TraceID != "framed-trace-01" {
		t.Errorf("response trace_id = %q, want framed-trace-01", cr.TraceID)
	}
}

// TestClientTracePropagation: the typed client forwards req.TraceID as
// the trace header, and the daemon's ID comes back on the typed
// response — the correlation loop mpschedbench relies on.
func TestClientTracePropagation(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	resp, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft", TraceID: "client-trace-1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "client-trace-1" {
		t.Errorf("Compile trace = %q, want client-trace-1", resp.TraceID)
	}
	job, err := c.SubmitJob(ctx, server.CompileRequest{Workload: "3dft", TraceID: "client-trace-2"})
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID != "client-trace-2" {
		t.Errorf("SubmitJob trace = %q, want client-trace-2", job.TraceID)
	}
	// The terminal job snapshot still carries the same trace ID.
	final, err := c.WaitJob(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.TraceID != "client-trace-2" {
		t.Errorf("final job trace = %q, want client-trace-2", final.TraceID)
	}
}

// fetchTrace polls GET /debug/traces/{id} until the trace is recorded:
// the ring insert happens after the handler wrote the response, so the
// client can race ahead of it.
func fetchTrace(t *testing.T, c *client.Client, id string) *obs.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		td, err := c.Trace(context.Background(), id)
		if err == nil {
			return td
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			t.Fatalf("trace %s: %v", id, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// syncBuffer is a goroutine-safe log sink (the recorder logs from
// handler goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestSlowTraceLogMatchesDebugEndpoint drives one compile over a
// threshold low enough that every request logs, then pins that the
// slow-trace log line and GET /debug/traces/{id} describe the identical
// span set — same names, same order, same millisecond durations.
func TestSlowTraceLogMatchesDebugEndpoint(t *testing.T) {
	var logBuf syncBuffer
	_, c := newTestServer(t, server.Options{
		SlowTrace: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	const id = "slowtrace0001"
	if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "fft:8", TraceID: id}); err != nil {
		t.Fatal(err)
	}
	td := fetchTrace(t, c, id)

	// The log write happens right after the ring insert fetchTrace waited
	// on, but in the handler goroutine — poll for the line.
	var line string
	deadline := time.Now().Add(5 * time.Second)
	for line == "" {
		for _, l := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(l, "trace="+id) {
				line = l
				break
			}
		}
		if line == "" {
			if time.Now().After(deadline) {
				t.Fatalf("no slow-trace log line for %s in:\n%s", id, logBuf.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !strings.Contains(line, "slow trace") || !strings.Contains(line, "route=") {
		t.Errorf("malformed slow-trace line: %q", line)
	}
	m := regexp.MustCompile(`spans="([^"]*)"`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no spans attribute in slow-trace line: %q", line)
	}
	if want := td.SpanSummary(); m[1] != want {
		t.Errorf("slow log spans %q != /debug/traces/%s spans %q", m[1], id, want)
	}
}

// TestTraceSpanSumApproxWallClock: the top-level spans partition the
// request — their durations must sum to ≈ the trace's wall clock, with
// "stage:*" spans excluded (they nest inside "compile").
func TestTraceSpanSumApproxWallClock(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	const id = "spansum000001"
	if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "fft:8", TraceID: id}); err != nil {
		t.Fatal(err)
	}
	td := fetchTrace(t, c, id)
	if td.Status != http.StatusOK || td.DurationMS <= 0 {
		t.Fatalf("trace not terminal: %+v", td)
	}
	var sum float64
	seen := map[string]bool{}
	for _, sp := range td.Spans {
		if strings.HasPrefix(sp.Name, "stage:") {
			continue
		}
		seen[sp.Name] = true
		sum += sp.DurationMS
	}
	for _, name := range []string{"decode", "compile", "encode"} {
		if !seen[name] {
			t.Errorf("top-level span %q missing from %v", name, td.Spans)
		}
	}
	// Spans are measured inside the window the trace duration measures,
	// and top-level spans do not overlap — the sum cannot meaningfully
	// exceed the wall clock, and must account for most of it (the code
	// between spans is a few map lookups and header writes).
	if sum > td.DurationMS*1.05+0.05 {
		t.Errorf("span sum %.3fms exceeds wall clock %.3fms", sum, td.DurationMS)
	}
	if sum < td.DurationMS*0.4 {
		t.Errorf("span sum %.3fms covers too little of wall clock %.3fms", sum, td.DurationMS)
	}
}

// TestCompileErrorLatencyRecorded: failed compiles must land in the
// outcome="error" latency distribution (the old reservoir dropped them,
// hiding error storms from the quantiles), and the request accounting
// invariant CI asserts must hold on a live scrape.
func TestCompileErrorLatencyRecorded(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	// An empty graph decodes but cannot be compiled: a pipeline-level
	// failure, which is exactly what must be measured.
	_, err := c.Compile(ctx, server.CompileRequest{DFG: []byte(`{"name":"empty","nodes":[],"edges":[]}`)})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty graph: err = %v, want a 422", err)
	}
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("mpschedd_compile_seconds_count", "outcome", "error"); !ok || v < 1 {
		t.Errorf("compile_seconds_count{outcome=error} = %g, %v; want >= 1", v, ok)
	}
	if v, ok := m.Value("mpschedd_compile_seconds_count", "outcome", "ok"); !ok || v < 1 {
		t.Errorf("compile_seconds_count{outcome=ok} = %g, %v; want >= 1", v, ok)
	}
	if v, ok := m.Value("mpschedd_compile_errors_total"); !ok || v < 1 {
		t.Errorf("compile_errors_total = %g, %v; want >= 1", v, ok)
	}
	// The scrape-time invariant the CI consistency gate checks: requests
	// are counted before their latency records, never after.
	for _, s := range m {
		if s.Name != "mpschedd_request_seconds_count" {
			continue
		}
		route := s.Labels["route"]
		if total, ok := m.Value("mpschedd_requests_total", "route", route); !ok || s.Value > total {
			t.Errorf("route %q: request_seconds_count %g > requests_total %g", route, s.Value, total)
		}
	}
}

// TestDebugTracesRecent: GET /debug/traces returns the most recent
// traces newest-first and honours ?n=.
func TestDebugTracesRecent(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft", TraceID: fmt.Sprintf("recent-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	fetchTrace(t, c, "recent-2") // wait until the last one is recorded

	resp, err := http.Get(c.BaseURL() + "/debug/traces?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(dump.Traces))
	}
	if dump.Traces[0].ID != "recent-2" || dump.Traces[1].ID != "recent-1" {
		t.Errorf("traces not newest-first: %s, %s", dump.Traces[0].ID, dump.Traces[1].ID)
	}
	if resp, err := http.Get(c.BaseURL() + "/debug/traces?n=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?n=0 status %d, want 400", resp.StatusCode)
		}
	}
}

// TestDebugTracesPageParam: ?n= is a whole integer in [1, 1024];
// trailing garbage, fractions and out-of-range values are a 400.
func TestDebugTracesPageParam(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	for q, want := range map[string]int{
		"5abc": http.StatusBadRequest, "3.9": http.StatusBadRequest, "0": http.StatusBadRequest,
		"1025": http.StatusBadRequest, "x": http.StatusBadRequest,
		"1": http.StatusOK, "1024": http.StatusOK,
	} {
		resp, err := http.Get(c.BaseURL() + "/debug/traces?n=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("?n=%s: status %d, want %d", q, resp.StatusCode, want)
		}
	}
}
