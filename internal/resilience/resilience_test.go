package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRetryDelayFirstRetryImmediate(t *testing.T) {
	p := RetryPolicy{BaseDelay: 2 * time.Millisecond, Rand: func() float64 { return 0.999 }}
	if d := p.Delay(1, 0); d != 0 {
		t.Errorf("Delay(failed=1) = %v, want 0 — one stochastic fault should not cost a backoff", d)
	}
	if d := p.Delay(1, time.Second); d != time.Second {
		t.Errorf("Delay(failed=1, Retry-After 1s) = %v, want 1s — backpressure still waits", d)
	}
}

func TestRetryDelayBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 16 * time.Millisecond, Rand: func() float64 { return 0.999 }}
	// After the free first retry the ceilings double then cap:
	// 2, 4, 8, 16, 16, ...
	wantCeil := []time.Duration{2, 4, 8, 16, 16, 16}
	for i, w := range wantCeil {
		w *= time.Millisecond
		d := p.Delay(i+2, 0)
		if d >= w || d < 0 {
			t.Errorf("Delay(failed=%d) = %v, want in [0, %v)", i+2, d, w)
		}
		if d < time.Duration(0.99*float64(w)) {
			t.Errorf("Delay(failed=%d) = %v, want close to ceiling %v at jitter 0.999", i+2, d, w)
		}
	}
}

func TestRetryDelayFullJitter(t *testing.T) {
	p := RetryPolicy{BaseDelay: 8 * time.Millisecond, Rand: func() float64 { return 0 }}
	if d := p.Delay(2, 0); d != 0 {
		t.Errorf("jitter 0 should give zero delay, got %v", d)
	}
}

func TestRetryDelayRetryAfterOverrides(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Rand: func() float64 { return 0.5 }}
	if d := p.Delay(2, time.Second); d != time.Second {
		t.Errorf("Retry-After 1s should override backoff, got %v", d)
	}
	if d := p.Delay(2, time.Nanosecond); d >= time.Millisecond {
		t.Errorf("tiny Retry-After should not raise the jittered delay, got %v", d)
	}
}

func TestRetryDelayOverflowGuard(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: time.Second, Rand: func() float64 { return 0.999 }}
	if d := p.Delay(200, 0); d > time.Second {
		t.Errorf("Delay(failed=200) = %v, want ≤ 1s (shift overflow must cap)", d)
	}
}

func TestRetryAttemptsDefault(t *testing.T) {
	if got := (RetryPolicy{}).Attempts(); got != DefaultMaxAttempts {
		t.Errorf("zero policy Attempts() = %d, want %d", got, DefaultMaxAttempts)
	}
	if got := (RetryPolicy{MaxAttempts: 2}).Attempts(); got != 2 {
		t.Errorf("Attempts() = %d, want 2", got)
	}
}

func TestSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v, want nil", err)
	}
}

func TestBreakerConsecutiveTrip(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerOptions{ConsecutiveFailures: 3, Cooldown: time.Second, Now: func() time.Time { return now }})
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker Allow = %v, want ErrBreakerOpen", err)
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips())
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b := NewBreaker(BreakerOptions{ConsecutiveFailures: 3})
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("interleaved successes must reset the consecutive count; state = %v", b.State())
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	b := NewBreaker(BreakerOptions{
		ConsecutiveFailures: 1000, // keep the consecutive signal out of the way
		WindowSize:          10,
		MinSamples:          10,
		ErrorRate:           0.5,
	})
	// Alternate: 5 fails / 10 outcomes = exactly the 0.5 trip threshold,
	// but MinSamples holds it closed until the window fills.
	for i := 0; i < 9; i++ {
		b.Record(i%2 == 0)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("tripped before MinSamples: state = %v", b.State())
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state at 50%% error rate over full window = %v, want open", b.State())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerOptions{ConsecutiveFailures: 1, Cooldown: time.Second, Now: func() time.Time { return now }})
	b.Record(false) // trip
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow before cooldown = %v, want ErrBreakerOpen", err)
	}
	now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after cooldown = %v, want probe admitted", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second caller during probe = %v, want ErrBreakerOpen", err)
	}

	// Failed probe reopens for another cooldown.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after second cooldown = %v", err)
	}
	// Successful probe closes.
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed-after-probe breaker rejected: %v", err)
	}
	if b.Trips() != 2 {
		t.Fatalf("Trips = %d, want 2", b.Trips())
	}
}

func TestBreakerNil(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatalf("nil breaker Allow = %v", err)
	}
	b.Record(false) // must not panic
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Fatal("nil breaker must read as closed")
	}
}

func TestHedgerArmsAfterMinSamples(t *testing.T) {
	h := NewHedger(HedgerOptions{Quantile: 0.95, MinSamples: 8, MinDelay: time.Millisecond})
	for i := 0; i < 7; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if _, ok := h.Delay(); ok {
		t.Fatal("hedger armed before MinSamples")
	}
	h.Observe(10 * time.Millisecond)
	d, ok := h.Delay()
	if !ok {
		t.Fatal("hedger not armed at MinSamples")
	}
	// Log-linear buckets are coarse; just require the trigger to be in
	// the right ballpark of the observed 10ms latencies.
	if d < time.Millisecond || d > 40*time.Millisecond {
		t.Fatalf("hedge trigger = %v, want near 10ms", d)
	}
}

func TestHedgerMinDelayFloor(t *testing.T) {
	h := NewHedger(HedgerOptions{MinSamples: 4, MinDelay: 5 * time.Millisecond})
	for i := 0; i < 4; i++ {
		h.Observe(time.Microsecond)
	}
	if d, ok := h.Delay(); !ok || d < 5*time.Millisecond {
		t.Fatalf("Delay = %v, %v; want floored at 5ms", d, ok)
	}
}

func TestHedgerMaxDelayCap(t *testing.T) {
	h := NewHedger(HedgerOptions{MinSamples: 4, MaxDelay: 2 * time.Millisecond})
	for i := 0; i < 4; i++ {
		h.Observe(time.Second)
	}
	if d, ok := h.Delay(); !ok || d > 2*time.Millisecond {
		t.Fatalf("Delay = %v, %v; want capped at 2ms", d, ok)
	}
}

func TestShedderLevels(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewShedder(100*time.Millisecond, time.Second)
	s.setNow(func() time.Time { return now })

	if s.Level() != ShedNone {
		t.Fatalf("fresh shedder Level = %v, want none", s.Level())
	}
	// Fill with healthy waits: stays none.
	for i := 0; i < 100; i++ {
		s.Observe(time.Millisecond)
	}
	now = now.Add(200 * time.Millisecond) // past the eval cache
	if s.Level() != ShedNone {
		t.Fatalf("healthy Level = %v (p99 %v), want none", s.Level(), s.P99())
	}
	// Queue waits past the threshold: async shedding.
	for i := 0; i < 300; i++ {
		s.Observe(120 * time.Millisecond)
	}
	now = now.Add(200 * time.Millisecond)
	if s.Level() != ShedAsync {
		t.Fatalf("Level at p99≈120ms = %v (p99 %v), want async", s.Level(), s.P99())
	}
	// Deep brownout: sync shedding too.
	for i := 0; i < 1000; i++ {
		s.Observe(300 * time.Millisecond)
	}
	now = now.Add(200 * time.Millisecond)
	if s.Level() != ShedSync {
		t.Fatalf("Level at p99≈300ms = %v (p99 %v), want sync", s.Level(), s.P99())
	}
	// Congestion ages out after two windows with no new samples.
	now = now.Add(3 * time.Second)
	if s.Level() != ShedNone {
		t.Fatalf("Level after windows aged out = %v (p99 %v), want none", s.Level(), s.P99())
	}
}

func TestShedderLevelCached(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewShedder(10*time.Millisecond, time.Second)
	s.setNow(func() time.Time { return now })
	for i := 0; i < 100; i++ {
		s.Observe(time.Second)
	}
	now = now.Add(100 * time.Millisecond)
	if s.Level() != ShedSync {
		t.Fatalf("Level = %v, want sync", s.Level())
	}
	// Within the eval interval the cached level holds even as windows age.
	now = now.Add(10 * time.Millisecond)
	if s.Level() != ShedSync {
		t.Fatal("cached level should hold inside the eval interval")
	}
}

func TestShedderDisabled(t *testing.T) {
	if s := NewShedder(0, time.Second); s != nil {
		t.Fatal("threshold 0 must disable shedding (nil shedder)")
	}
	var s *Shedder
	s.Observe(time.Hour) // must not panic
	if s.Level() != ShedNone || s.P99() != 0 {
		t.Fatal("nil shedder must never shed")
	}
}

func TestShedLevelString(t *testing.T) {
	if ShedNone.String() != "none" || ShedAsync.String() != "async" || ShedSync.String() != "sync" {
		t.Fatal("ShedLevel.String mismatch")
	}
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" || BreakerHalfOpen.String() != "half-open" {
		t.Fatal("BreakerState.String mismatch")
	}
}
