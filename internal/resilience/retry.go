// Package resilience holds the failure policies the serving stack
// composes around compiles: client-side retries with capped exponential
// backoff and full jitter, tail-latency hedging, per-endpoint circuit
// breakers, and server-side brownout load shedding. The deadline header
// that propagates a request's remaining budget is part of the wire (see
// wire.DeadlineHeader).
//
// Every policy here is mechanism, not wiring: the pieces carry no HTTP
// or pipeline dependencies, so internal/server, internal/server/client
// and tests compose them freely. internal/faults is the matching
// fault-injection harness that the policies are tested against.
package resilience

import (
	"context"
	"math/rand/v2"
	"time"
)

// RetryPolicy is capped exponential backoff with full jitter: attempt n
// waits a uniform random duration in [0, min(MaxDelay, BaseDelay·2ⁿ)].
// Full jitter (rather than equal or decorrelated) is deliberate — a
// storm of clients that all failed at the same instant decorrelates
// immediately instead of re-converging on the server in waves. The zero
// value is a usable default policy.
type RetryPolicy struct {
	// MaxAttempts bounds total tries including the first; ≤ 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the first backoff ceiling; ≤ 0 means DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps any single backoff wait; ≤ 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// Rand supplies jitter in [0, 1); nil uses the shared math/rand/v2
	// source. Tests pin it for determinism.
	Rand func() float64
}

// Retry-policy defaults. Eight attempts is tuned to the chaos gate's
// zero-visible-errors contract: with ~7% of attempts failing (5%
// injected 500s + 2% dropped connections), five tries leave residual
// failure odds of 0.07⁵ ≈ 2·10⁻⁶ — a 30k-request CI storm then leaks a
// client-visible error about one run in twenty, which is a flaky gate.
// Eight tries push the residual below 10⁻⁹ per request (≈ 2·10⁻⁵ per
// storm) for at most ~130ms of extra jittered backoff on the
// astronomically rare deep chain, and a persistent outage still fails
// fast enough for the breaker to take over: eight consecutive failures
// on an endpoint trip its circuit, so the deep attempts of one call and
// the fast-fails of the next arrive at the same horizon.
const (
	DefaultMaxAttempts = 8
	DefaultBaseDelay   = 2 * time.Millisecond
	DefaultMaxDelay    = time.Second
)

// Attempts returns the effective total attempt bound.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// Delay returns how long to wait before the attempt after `failed`
// completed attempts (failed ≥ 1). The first retry goes immediately —
// one failure is far more likely a stochastic fault than sustained
// overload, and waiting out a jittered backoff before it just adds the
// backoff to every transient's latency. From the second failure on the
// ceiling doubles from BaseDelay. A server Retry-After hint overrides
// the computed delay when it is longer — the server knows its own
// recovery horizon better than the client's guess.
func (p RetryPolicy) Delay(failed int, retryAfter time.Duration) time.Duration {
	if failed == 1 {
		return retryAfter
	}
	base, maxd := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	if maxd <= 0 {
		maxd = DefaultMaxDelay
	}
	ceil := base << uint(failed-2)
	if failed <= 0 {
		ceil = base
	}
	if ceil > maxd || ceil <= 0 { // <<-overflow guards the far tail
		ceil = maxd
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	d := time.Duration(r() * float64(ceil))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Sleep waits for d or until ctx is done, returning ctx.Err() in the
// latter case. d ≤ 0 returns immediately (still checking ctx).
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
