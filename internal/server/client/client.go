// Package client is the typed Go client for the mpschedd compile service
// (internal/server). It re-uses the server's wire types, so a round trip
// is compile-time checked end to end, and speaks any registered wire
// codec — JSON by default, or the compact binary format via WithCodec:
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.Compile(ctx, server.CompileRequest{Workload: "fft:8"})
//	fmt.Println(resp.Cycles, "cycles, cache hit:", resp.CacheHit)
//
//	fast := c.WithCodec(wire.Binary)
//	items, err := fast.CompileBatch(ctx, reqs) // N compiles, one round trip
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/obs"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// Client talks to one mpschedd base URL. Safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	codec wire.Codec
	// res is the resilience layer (retries, hedging, breakers); nil —
	// the default — means every call is a single bare attempt.
	res *clientResilience
}

// sharedTransport is the default transport for all clients: the stdlib
// default keeps only 2 idle connections per host, which forces a
// many-goroutine load generator to re-dial (and re-handshake) on almost
// every request. One tuned transport shared across Clients keeps the
// connection pool warm.
var sharedTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 512
	t.MaxIdleConnsPerHost = 256
	return t
}()

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080"), speaking JSON. The underlying http.Client
// has no timeout — bound calls with a context.
func New(baseURL string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    &http.Client{Transport: sharedTransport},
		codec: wire.JSON,
	}
}

// WithHTTPClient returns a derived client using hc as its transport
// (custom timeouts, instrumentation). The receiver is not modified, so
// deriving is safe even while other goroutines use the original.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	cp := *c
	cp.hc = hc
	return &cp
}

// WithTimeout returns a derived client whose requests time out after d
// (zero = none), keeping the tuned shared transport — unlike handing
// WithHTTPClient a fresh http.Client, which would silently drop the warm
// connection pool. The receiver is not modified.
func (c *Client) WithTimeout(d time.Duration) *Client {
	cp := *c
	hc := *cp.hc
	hc.Timeout = d
	cp.hc = &hc
	return &cp
}

// WithBaseURL returns a derived client addressing a different daemon,
// keeping the receiver's transport, codec and resilience layer. Deriving
// per-backend clients from one WithResilience root shares the policy
// state and stats across the set, while breakers and hedge histograms —
// keyed per base URL × route shape — stay per-backend: one dead
// backend's open circuit never fast-fails its healthy peers. The
// receiver is not modified.
func (c *Client) WithBaseURL(baseURL string) *Client {
	cp := *c
	cp.base = strings.TrimRight(baseURL, "/")
	return &cp
}

// WithCodec returns a derived client using codec for compile and batch
// bodies. Job-control and introspection endpoints stay JSON (the server
// speaks only JSON there). The receiver is not modified.
func (c *Client) WithCodec(codec wire.Codec) *Client {
	cp := *c
	cp.codec = codec
	return &cp
}

// Codec returns the wire codec compile and batch calls use.
func (c *Client) Codec() wire.Codec { return c.codec }

// BaseURL returns the daemon base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent) —
	// set on 429/503 admission rejections.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mpschedd: %d: %s", e.StatusCode, e.Message)
}

// Compile runs one synchronous compile (POST /v1/compile) in the
// client's codec.
func (c *Client) Compile(ctx context.Context, req server.CompileRequest) (*server.CompileResponse, error) {
	var resp server.CompileResponse
	ct := c.codec.ContentType()
	err := c.call(ctx, http.MethodPost, "/v1/compile", ct, ct, req.TraceID,
		func(w io.Writer) error { return c.codec.EncodeRequest(w, &req) },
		func(r io.Reader) error { return c.codec.DecodeResponse(r, &resp) })
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// CompileBatch runs N compiles in one round trip (POST /v1/batch) in the
// client's codec. Items arrive in completion order — match them to reqs
// by Index. Per-job failures are items with a non-200 Status, not an
// error; the returned error covers transport and envelope faults only,
// including a short stream (server died mid-batch).
func (c *Client) CompileBatch(ctx context.Context, reqs []server.CompileRequest) ([]server.BatchItem, error) {
	var items []server.BatchItem
	ct := c.codec.ContentType()
	// The envelope trace ID rides the header; per-job TraceIDs inside reqs
	// additionally survive the binary codec's framing.
	var trace string
	if len(reqs) > 0 {
		trace = reqs[0].TraceID
	}
	// The whole stream is read and validated inside dec, with stream
	// faults wrapped in wire.ErrFormat: a short-but-clean-EOF stream (a
	// server killed mid-batch) is then a retryable wire fault like any
	// truncated frame, not a silent partial result. Items reset at the
	// top so a retried attempt starts from scratch.
	err := c.call(ctx, http.MethodPost, "/v1/batch", ct, ct, trace,
		func(w io.Writer) error { return c.codec.EncodeBatch(w, &wire.BatchRequest{Jobs: reqs}) },
		func(r io.Reader) error {
			items = make([]server.BatchItem, 0, len(reqs))
			ir := c.codec.NewItemReader(r)
			for {
				var it server.BatchItem
				switch err := ir.ReadItem(&it); err {
				case nil:
					items = append(items, it)
				case io.EOF:
					return validateBatch(items, len(reqs))
				default:
					return err
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// validateBatch checks a batch stream delivered exactly one item per
// requested job. Violations are wire-format faults (a truncated or
// corrupt stream), reported as such so the resilience layer retries.
func validateBatch(items []server.BatchItem, want int) error {
	seen := make([]bool, want)
	for i := range items {
		idx := items[i].Index
		if idx < 0 || idx >= want || seen[idx] {
			return fmt.Errorf("%w: batch stream: bad or duplicate item index %d", wire.ErrFormat, idx)
		}
		seen[idx] = true
	}
	if len(items) != want {
		return fmt.Errorf("%w: batch stream truncated: got %d of %d results", wire.ErrFormat, len(items), want)
	}
	return nil
}

// SubmitJob enqueues an async compile (POST /v1/jobs) and returns the
// accepted job (status "queued").
func (c *Client) SubmitJob(ctx context.Context, req server.CompileRequest) (*server.JobResponse, error) {
	var resp server.JobResponse
	ct := c.codec.ContentType()
	err := c.call(ctx, http.MethodPost, "/v1/jobs", ct, wire.ContentTypeJSON, req.TraceID,
		func(w io.Writer) error { return c.codec.EncodeRequest(w, &req) },
		decodeJSON(&resp))
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job fetches a job's current state (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (*server.JobResponse, error) {
	var resp server.JobResponse
	if err := c.get(ctx, "/v1/jobs/"+id, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ErrWaitTimeout reports that WaitJob's context expired before the job
// reached a terminal state. Match with errors.Is; the job may still
// complete server-side.
var ErrWaitTimeout = errors.New("client: timed out waiting for job")

// maxTransientPolls bounds how many consecutive transient poll failures
// (429/503 backpressure) WaitJob tolerates before giving up: a server
// that sheds every poll for this long is effectively down, and a caller
// with no context deadline must not spin on it forever.
const maxTransientPolls = 16

// WaitJob polls a job until it reaches a terminal state or ctx expires;
// expiry returns the last observed state (possibly nil) wrapped in
// ErrWaitTimeout. poll ≤ 0 selects a 25ms ceiling. Polling backs off
// exponentially from 1ms up to that ceiling (a job done in 2ms is seen
// in ~3ms instead of a full tick). Transient admission errors (429/503)
// honour the server's Retry-After hint instead of failing the wait, but
// only maxTransientPolls in a row — then the wait fails rather than
// polling a shedding server forever.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*server.JobResponse, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	delay := time.Millisecond
	transient := 0
	var last *server.JobResponse // most recent successful snapshot
	for {
		resp, err := c.Job(ctx, id)
		if err == nil {
			last, transient = resp, 0
			if resp.Status == server.JobDone || resp.Status == server.JobFailed {
				return resp, nil
			}
		} else {
			if ctx.Err() != nil {
				// The budget expired mid-poll; the transport surfaces that
				// as its own error, but it is still a wait timeout.
				return last, fmt.Errorf("job %s: %w: %w", id, ErrWaitTimeout, ctx.Err())
			}
			var e *APIError
			if !errors.As(err, &e) || (e.StatusCode != http.StatusTooManyRequests && e.StatusCode != http.StatusServiceUnavailable) {
				return nil, err
			}
			if transient++; transient >= maxTransientPolls {
				return nil, fmt.Errorf("job %s: gave up after %d consecutive transient poll failures: %w", id, transient, err)
			}
			if e.RetryAfter > delay {
				delay = e.RetryAfter
			}
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return last, fmt.Errorf("job %s: %w: %w", id, ErrWaitTimeout, ctx.Err())
		case <-t.C:
		}
		if delay *= 2; delay > poll {
			delay = poll
		}
	}
}

// Workloads fetches the generator catalog (GET /v1/workloads).
func (c *Client) Workloads(ctx context.Context) ([]cliutil.Workload, error) {
	var resp server.WorkloadsResponse
	if err := c.get(ctx, "/v1/workloads", &resp); err != nil {
		return nil, err
	}
	return resp.Workloads, nil
}

// Healthz checks liveness (GET /healthz).
func (c *Client) Healthz(ctx context.Context) (*server.HealthResponse, error) {
	var resp server.HealthResponse
	if err := c.get(ctx, "/healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics scrapes the daemon's Prometheus-text exposition
// (GET /metrics) into a queryable sample set:
//
//	m, _ := c.Metrics(ctx)
//	hits, _ := m.Value("mpschedd_cache_hits_total")
func (c *Client) Metrics(ctx context.Context) (obs.Metrics, error) {
	var m obs.Metrics
	err := c.call(ctx, http.MethodGet, "/metrics", "", "", "", nil,
		func(r io.Reader) error {
			var err error
			m, err = obs.ParseMetrics(r)
			return err
		})
	return m, err
}

// Trace fetches one trace's span breakdown from the daemon's ring buffer
// (GET /debug/traces/{id}); a 404 *APIError means it has been evicted.
func (c *Client) Trace(ctx context.Context, id string) (*obs.TraceData, error) {
	var td obs.TraceData
	if err := c.get(ctx, "/debug/traces/"+id, &td); err != nil {
		return nil, err
	}
	return &td, nil
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, "", wire.ContentTypeJSON, "", nil, decodeJSON(out))
}

func decodeJSON(out any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(out) }
}

// bufPool amortises request-body buffers across calls: a hot client
// (load generator, batch dispatcher) encodes every request into a
// recycled buffer and hands the transport a bytes.Reader over it, which
// also gives the request a Content-Length and trivial retryability.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// call is the one path every method funnels through: encode the body
// (enc nil = no body) into a pooled buffer, then run the attempt —
// directly via do1, or through the resilience layer (retries, hedging,
// breakers) when WithResilience configured one. The buffer outlives
// every attempt launched over it; do does not return while one is still
// in flight.
func (c *Client) call(ctx context.Context, method, path, contentType, accept, trace string, enc func(io.Writer) error, dec func(io.Reader) error) error {
	var payload []byte
	if enc != nil {
		buf := bufPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer bufPool.Put(buf)
		if err := enc(buf); err != nil {
			return err
		}
		payload = buf.Bytes()
	}
	if c.res != nil {
		return c.res.do(ctx, c, method, path, contentType, accept, trace, payload, dec)
	}
	return c.do1(ctx, method, c.base+path, contentType, accept, trace, payload, dec)
}

// do1 is one bare HTTP attempt: send payload (nil = no body) with the
// given Content-Type/Accept, an optional X-Mpsched-Trace header, and —
// when ctx carries a deadline — the remaining budget in
// X-Mpsched-Deadline so the server stops working the moment the caller
// stops waiting. Non-2xx maps to *APIError (error bodies are always
// JSON, whatever the codec), 2xx decodes with dec, and the body is
// drained so the connection goes back into the pool.
func (c *Client) do1(ctx context.Context, method, url, contentType, accept, trace string, payload []byte, dec func(io.Reader) error) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining > 0 {
			req.Header.Set(wire.DeadlineHeader, wire.FormatDeadline(remaining))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Drain whatever dec left so the connection is reusable.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var e server.ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = strings.TrimSpace(string(data))
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: e.Error}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	if dec == nil {
		return nil
	}
	return dec(resp.Body)
}
