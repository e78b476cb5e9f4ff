package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mpsched/internal/resilience"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// fastRetry is a retry policy with no real backoff, so failure-path
// tests don't sleep.
func fastRetry() *resilience.RetryPolicy {
	return &resilience.RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

func compileOK(w http.ResponseWriter) {
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	json.NewEncoder(w).Encode(&server.CompileResponse{Name: "3dft", Cycles: 42})
}

func compileErr(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&server.ErrorResponse{Error: fmt.Sprintf("injected %d", status)})
}

// TestRetryRecoversFrom500: a server that fails twice then succeeds is
// invisible to a resilient caller, and the retries are counted.
func TestRetryRecoversFrom500(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			compileErr(w, http.StatusInternalServerError)
			return
		}
		compileOK(w)
	}))
	defer ts.Close()

	c := New(ts.URL).WithResilience(ResilienceOptions{Retry: fastRetry()})
	resp, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatalf("resilient compile: %v", err)
	}
	if resp.Cycles != 42 {
		t.Errorf("cycles = %d, want 42", resp.Cycles)
	}
	if got := c.ResilienceStats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// A bare client sees the failure it was dealt.
	calls.Store(0)
	if _, err := New(ts.URL).Compile(context.Background(), server.CompileRequest{Workload: "3dft"}); err == nil {
		t.Error("bare client should surface the 500")
	}
}

// TestRetryStopsOnTerminalError: a 422 is the request's own fault —
// resending it verbatim cannot help, so exactly one attempt happens.
func TestRetryStopsOnTerminalError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		compileErr(w, http.StatusUnprocessableEntity)
	}))
	defer ts.Close()

	c := New(ts.URL).WithResilience(ResilienceOptions{Retry: fastRetry()})
	_, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	var api *APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want APIError 422", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}
}

// TestRetryTruncatedBatchStream: a batch stream that ends cleanly but
// short (server died mid-batch) is a wire fault, and wire faults retry.
func TestRetryTruncatedBatchStream(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		enc := json.NewEncoder(w)
		enc.Encode(&server.BatchItem{Index: 0, Status: 200, Result: &server.CompileResponse{}})
		if calls.Add(1) > 1 {
			enc.Encode(&server.BatchItem{Index: 1, Status: 200, Result: &server.CompileResponse{}})
		}
	}))
	defer ts.Close()

	c := New(ts.URL).WithResilience(ResilienceOptions{Retry: fastRetry()})
	items, err := c.CompileBatch(context.Background(), make([]server.CompileRequest, 2))
	if err != nil {
		t.Fatalf("batch after truncated first stream: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if c.ResilienceStats().Retries == 0 {
		t.Error("truncated stream should have triggered a retry")
	}
}

// TestBreakerFailsFast: enough consecutive failures open the circuit;
// after that, calls fail with ErrBreakerOpen without touching the
// network, and 429 backpressure never counts against the endpoint.
func TestBreakerFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		compileErr(w, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL).WithResilience(ResilienceOptions{
		Breaker: &resilience.BreakerOptions{ConsecutiveFailures: 3, Cooldown: time.Hour},
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"}); err == nil {
			t.Fatal("compile against a dead server should fail")
		}
	}
	before := calls.Load()
	_, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still reached the network")
	}
	stats := c.ResilienceStats()
	if stats.BreakerTrips != 1 || stats.BreakerFastFails == 0 {
		t.Errorf("stats = %+v, want 1 trip and ≥1 fast fail", stats)
	}
}

// TestBreakerIgnoresBackpressure: a server drowning in 429s is alive —
// the circuit must stay closed so clients keep honouring Retry-After
// instead of abandoning the endpoint.
func TestBreakerIgnoresBackpressure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		compileErr(w, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL).WithResilience(ResilienceOptions{
		Breaker: &resilience.BreakerOptions{ConsecutiveFailures: 3},
	})
	for i := 0; i < 10; i++ {
		_, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
		var api *APIError
		if !errors.As(err, &api) || api.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("attempt %d: err = %v, want APIError 429 (breaker must not trip)", i, err)
		}
	}
	if got := c.ResilienceStats().BreakerTrips; got != 0 {
		t.Errorf("breaker trips = %d, want 0", got)
	}
}

// TestSubmitJobNotRetried: POST /v1/jobs is not idempotent — a retried
// submit could enqueue the same compile twice, so a failed submit
// surfaces immediately even with retries configured.
func TestSubmitJobNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		compileErr(w, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL).WithResilience(ResilienceOptions{Retry: fastRetry()})
	if _, err := c.SubmitJob(context.Background(), server.CompileRequest{Workload: "3dft"}); err == nil {
		t.Fatal("submit against a failing server should error")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d submits, want exactly 1", n)
	}
}

// TestHedgeRescuesTail: after the hedger has seen enough fast
// latencies, an attempt stuck far beyond p95 gets a duplicate racing it
// — and the duplicate's fast response wins.
func TestHedgeRescuesTail(t *testing.T) {
	var calls atomic.Int64
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The 65th call hangs until released: only its hedge can answer.
		if calls.Add(1) == 65 {
			<-stall
		}
		compileOK(w)
	}))
	defer ts.Close()
	defer close(stall)

	c := New(ts.URL).WithResilience(ResilienceOptions{
		Hedge: &resilience.HedgerOptions{MinSamples: 8},
	})
	for i := 0; i < 64; i++ {
		if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"}); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Compile(ctx, server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatalf("hedged compile: %v", err)
	}
	stats := c.ResilienceStats()
	if stats.Hedges == 0 || stats.HedgeWins == 0 {
		t.Errorf("stats = %+v, want ≥1 hedge and ≥1 hedge win", stats)
	}
}

// TestDeadlineHeaderFromContext: a context deadline rides to the server
// as a remaining-budget header without any resilience configured.
func TestDeadlineHeaderFromContext(t *testing.T) {
	got := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Get(wire.DeadlineHeader)
		compileOK(w)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := New(ts.URL).Compile(ctx, server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}
	hdr := <-got
	budget, err := wire.ParseDeadline(hdr)
	if err != nil || budget <= 0 || budget > 30*time.Second {
		t.Errorf("deadline header %q (parsed %v, err %v), want a budget in (0s, 30s]", hdr, budget, err)
	}

	// No deadline on the context → no header.
	if _, err := New(ts.URL).Compile(context.Background(), server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}
	if hdr := <-got; hdr != "" {
		t.Errorf("deadline header without a ctx deadline = %q, want absent", hdr)
	}
}

// TestWaitJobTimeout: a wait whose context expires returns
// ErrWaitTimeout instead of a bare ctx error (satellite: WaitJob used
// to poll forever with nothing to tell callers why it stopped).
func TestWaitJobTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&server.JobResponse{ID: "j1", Status: server.JobQueued})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	resp, err := New(ts.URL).WaitJob(ctx, "j1", 5*time.Millisecond)
	if !errors.Is(err, ErrWaitTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrWaitTimeout wrapping DeadlineExceeded", err)
	}
	if resp == nil || resp.Status != server.JobQueued {
		t.Errorf("last observed state = %+v, want the queued snapshot", resp)
	}
}

// TestWaitJobGivesUpOnPersistentBackpressure: a server that sheds every
// poll is effectively down; the wait must terminate even without a
// context deadline instead of spinning forever.
func TestWaitJobGivesUpOnPersistentBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		compileErr(w, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	_, err := New(ts.URL).WaitJob(context.Background(), "j1", time.Millisecond)
	var api *APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the underlying 503 wrapped", err)
	}
	if n := calls.Load(); n != maxTransientPolls {
		t.Errorf("polled %d times, want exactly %d", n, maxTransientPolls)
	}
}

// TestEndpointOf pins the backend × route-shape keying of breakers and
// hedgers: /v1/jobs/<every-id> on one base shares one circuit, while the
// same route on two bases never does.
func TestEndpointOf(t *testing.T) {
	for _, tc := range []struct{ base, method, path, want string }{
		{"http://a:1", "POST", "/v1/compile", "http://a:1 POST /v1/compile"},
		{"http://a:1", "GET", "/v1/jobs/abc123", "http://a:1 GET /v1/jobs/{id}"},
		{"http://b:2", "GET", "/debug/traces/xyz", "http://b:2 GET /debug/traces/{id}"},
		{"http://b:2", "POST", "/v1/jobs", "http://b:2 POST /v1/jobs"},
	} {
		if got := endpointOf(tc.base, tc.method, tc.path); got != tc.want {
			t.Errorf("endpointOf(%s, %s, %s) = %q, want %q", tc.base, tc.method, tc.path, got, tc.want)
		}
	}
	if endpointOf("http://a:1", "POST", "/v1/compile") == endpointOf("http://b:2", "POST", "/v1/compile") {
		t.Error("two bases share an endpoint key; breakers would couple across backends")
	}
}

// TestBreakerPerBackend proves the per-backend keying end to end: a
// WithBaseURL twin pointed at a dead address trips its own breaker
// without opening the circuit for the healthy base sharing the same
// resilience state.
func TestBreakerPerBackend(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		compileOK(w)
	}))
	defer ts.Close()

	// One retry attempt keeps the dead-base calls fast; Consecutive 2
	// trips its breaker on the second failure.
	live := New(ts.URL).WithResilience(ResilienceOptions{
		Retry:   &resilience.RetryPolicy{MaxAttempts: 1},
		Breaker: &resilience.BreakerOptions{ConsecutiveFailures: 2},
	})
	dead := live.WithBaseURL("http://127.0.0.1:1")

	for i := 0; i < 3; i++ {
		if _, err := dead.Compile(context.Background(), server.CompileRequest{Workload: "fft:8"}); err == nil {
			t.Fatal("compile against a dead address succeeded")
		}
	}
	stats := live.ResilienceStats()
	if stats.BreakerTrips == 0 {
		t.Fatalf("dead base never tripped its breaker: %+v", stats)
	}
	// The shared state's open circuit is keyed to the dead base only: the
	// live base must still be admitted and succeed.
	if _, err := live.Compile(context.Background(), server.CompileRequest{Workload: "fft:8"}); err != nil {
		t.Fatalf("live base failed after dead twin tripped its breaker: %v", err)
	}
	if ff := live.ResilienceStats().BreakerFastFails; ff < 1 {
		t.Errorf("dead base's open circuit never fast-failed (fast fails = %d)", ff)
	}
}
