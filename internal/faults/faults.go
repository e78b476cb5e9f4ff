// Package faults is the serving stack's fault-injection harness: an
// HTTP middleware that injects latency, error responses, backpressure,
// truncated responses and dropped connections at configured rates, plus
// a compile-level panic injector — the failure modes
// internal/resilience exists to absorb. Injection is seeded and
// deterministic at the decision-stream level: one seeded PCG makes
// every roll, so a single-threaded request sequence always sees the
// same faults and a concurrent storm always sees the same fault mix.
//
// Wire it in via server.Options.Faults or `mpschedd -chaos`:
//
//	mpschedd -chaos 'latency=5%,err=5%,drop=2%,seed=1'
//
// Only /v1 routes are faulted; /healthz, /metrics and /debug stay
// clean so the harness watching the chaos is not part of it.
package faults

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpsched/internal/wire"
)

// Config sets the injected-fault rates. Rates are probabilities in
// [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed makes the fault stream reproducible. Zero means 1.
	Seed int64
	// Latency is the rate of requests delayed by LatencyDur before the
	// handler runs.
	Latency float64
	// LatencyDur is the injected delay; ≤ 0 means DefaultLatencyDur.
	LatencyDur time.Duration
	// Err is the rate of requests answered with an injected 500 instead
	// of reaching the handler.
	Err float64
	// Reject is the rate of requests answered with an injected 429
	// (Retry-After: 1) instead of reaching the handler.
	Reject float64
	// Truncate is the rate of responses cut off after a random prefix of
	// their body, then the connection closed — the client reads a
	// partial frame and EOF.
	Truncate float64
	// Drop is the rate of connections closed before any response bytes —
	// the client sees a mid-stream connection drop.
	Drop float64
	// Only, when non-empty, restricts injection to request paths
	// containing it (per-route rates: run one injector per route, or
	// scope one to the route under test).
	Only string
	// CompilePanic, when non-empty, makes Injector.CompilePanic panic
	// for any compile whose label contains it — the deterministic
	// trigger for the server's panic-isolation tests.
	CompilePanic string
}

// DefaultLatencyDur is the injected delay when the spec gives none:
// large against a sub-millisecond compile, small enough that hedging
// rescues it inside a CI storm.
const DefaultLatencyDur = 20 * time.Millisecond

// ParseSpec parses the -chaos flag grammar: comma-separated key=value
// pairs. Rates take "5%" or "0.05"; durations take Go syntax.
//
//	latency=5%  latency-dur=20ms  err=5%  reject=3%  truncate=1%
//	drop=2%  seed=1  only=/v1/compile  panic=boom
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("faults: bad spec element %q: want key=value", part)
		}
		var err error
		switch key {
		case "latency":
			cfg.Latency, err = parseRate(val)
		case "latency-dur":
			cfg.LatencyDur, err = time.ParseDuration(val)
		case "err":
			cfg.Err, err = parseRate(val)
		case "reject":
			cfg.Reject, err = parseRate(val)
		case "truncate":
			cfg.Truncate, err = parseRate(val)
		case "drop":
			cfg.Drop, err = parseRate(val)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "only":
			cfg.Only = val
		case "panic":
			cfg.CompilePanic = val
		default:
			return cfg, fmt.Errorf("faults: unknown spec key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("faults: bad %s value %q: %v", key, val, err)
		}
	}
	if total := cfg.Latency + cfg.Err + cfg.Reject + cfg.Truncate + cfg.Drop; total > 1 {
		return cfg, fmt.Errorf("faults: fault rates sum to %.2f, over 1", total)
	}
	return cfg, nil
}

func parseRate(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, err
	}
	if pct {
		v /= 100
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("rate %g out of [0, 1]", v)
	}
	return v, nil
}

// String renders the active fault mix for startup logs.
func (c Config) String() string {
	var parts []string
	add := func(name string, rate float64) {
		if rate > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g%%", name, rate*100))
		}
	}
	add("latency", c.Latency)
	add("err", c.Err)
	add("reject", c.Reject)
	add("truncate", c.Truncate)
	add("drop", c.Drop)
	if c.CompilePanic != "" {
		parts = append(parts, "panic="+c.CompilePanic)
	}
	if c.Only != "" {
		parts = append(parts, "only="+c.Only)
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Stats counts injected faults, per kind.
type Stats struct {
	Latency, Err, Reject, Truncate, Drop, Panic int64
}

// Injector injects the configured faults. Construct with New; safe for
// concurrent use. A nil Injector injects nothing.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	latency, errs, rejects, truncates, drops, panics atomic.Int64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.LatencyDur <= 0 {
		cfg.LatencyDur = DefaultLatencyDur
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewPCG(uint64(seed), uint64(seed)))}
}

// Config returns the injector's configuration.
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Stats returns the injected-fault counters so far.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return Stats{
		Latency:  i.latency.Load(),
		Err:      i.errs.Load(),
		Reject:   i.rejects.Load(),
		Truncate: i.truncates.Load(),
		Drop:     i.drops.Load(),
		Panic:    i.panics.Load(),
	}
}

// roll draws one uniform [0, 1) variate from the seeded stream.
func (i *Injector) roll() float64 {
	i.mu.Lock()
	v := i.rng.Float64()
	i.mu.Unlock()
	return v
}

// faultKind is the outcome of one request's roll.
type faultKind int

const (
	faultNone faultKind = iota
	faultLatency
	faultErr
	faultReject
	faultTruncate
	faultDrop
)

// pick maps one roll onto the configured rate bands: a single draw per
// request keeps the stream deterministic and the bands mutually
// exclusive (rates sum ≤ 1, enforced by ParseSpec).
func (i *Injector) pick() faultKind {
	v := i.roll()
	c := i.cfg
	switch {
	case v < c.Drop:
		return faultDrop
	case v < c.Drop+c.Err:
		return faultErr
	case v < c.Drop+c.Err+c.Reject:
		return faultReject
	case v < c.Drop+c.Err+c.Reject+c.Truncate:
		return faultTruncate
	case v < c.Drop+c.Err+c.Reject+c.Truncate+c.Latency:
		return faultLatency
	}
	return faultNone
}

// Middleware wraps next with fault injection on matching /v1 routes. A
// nil Injector returns next unchanged.
func (i *Injector) Middleware(next http.Handler) http.Handler {
	if i == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if !strings.HasPrefix(path, "/v1") ||
			(i.cfg.Only != "" && !strings.Contains(path, i.cfg.Only)) {
			next.ServeHTTP(w, r)
			return
		}
		switch i.pick() {
		case faultDrop:
			i.drops.Add(1)
			abort(w)
			return
		case faultErr:
			i.errs.Add(1)
			wire.WriteError(w, http.StatusInternalServerError, errors.New("faults: injected error"))
			return
		case faultReject:
			i.rejects.Add(1)
			wire.WriteRetryLater(w, http.StatusTooManyRequests, errors.New("faults: injected backpressure"))
			return
		case faultTruncate:
			i.truncates.Add(1)
			// Let the handler run, forward only a prefix of its response,
			// then kill the connection: the client sees a truncated frame.
			tw := &truncWriter{ResponseWriter: w, limit: 1 + int64(i.roll()*63)}
			next.ServeHTTP(tw, r)
			tw.abort()
			return
		case faultLatency:
			i.latency.Add(1)
			select {
			case <-r.Context().Done():
			case <-time.After(i.cfg.LatencyDur):
			}
		}
		next.ServeHTTP(w, r)
	})
}

// CompilePanic panics when the configured trigger matches the compile's
// label, simulating a compiler bug on exactly that job. Call it where a
// panicking compile would originate — inside the per-job goroutine —
// so the server's isolation (not the injector) decides the blast
// radius. Nil-safe and free when unconfigured.
func (i *Injector) CompilePanic(label string) {
	if i == nil || i.cfg.CompilePanic == "" {
		return
	}
	if strings.Contains(label, i.cfg.CompilePanic) {
		i.panics.Add(1)
		panic(fmt.Sprintf("faults: injected compile panic (%s)", label))
	}
}

// abort kills the connection without a response: hijack and close when
// the server supports it, otherwise panic with http.ErrAbortHandler,
// which net/http turns into an aborted response instead of a crash.
func abort(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// truncWriter forwards at most limit body bytes, then swallows the
// rest; abort() closes the connection so the client cannot mistake the
// prefix for a complete response.
type truncWriter struct {
	http.ResponseWriter
	limit   int64
	written int64
	cut     bool
}

func (t *truncWriter) Write(b []byte) (int, error) {
	if t.cut {
		return len(b), nil // swallow, handler keeps going harmlessly
	}
	remain := t.limit - t.written
	if int64(len(b)) <= remain {
		n, err := t.ResponseWriter.Write(b)
		t.written += int64(n)
		return n, err
	}
	n, err := t.ResponseWriter.Write(b[:remain])
	t.written += int64(n)
	t.cut = true
	if err != nil {
		return n, err
	}
	return len(b), nil
}

// Flush passes through so streaming handlers behave normally up to the
// cut.
func (t *truncWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok && !t.cut {
		f.Flush()
	}
}

func (t *truncWriter) abort() {
	abort(t.ResponseWriter)
}
