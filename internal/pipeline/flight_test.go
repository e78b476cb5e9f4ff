package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mpsched/internal/patsel"
	"mpsched/internal/workloads"
)

// compileConcurrently compiles spec from n goroutines at once, each under
// the context ctxFor(i) returns, and returns their reports and errors by
// goroutine. started is done once every goroutine is about to compile.
func compileConcurrently(c *Compiler, n int, started *sync.WaitGroup, ctxFor func(i int) context.Context, specFor func(i int) Spec) ([]*Report, []error) {
	reps, errs := make([]*Report, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			reps[i], errs[i] = c.Compile(ctxFor(i), specFor(i))
		}()
	}
	wg.Wait()
	return reps, errs
}

// TestConcurrentMissesCompileOnce: 8 goroutines compile one Spec against
// a cold cache at once. One runs the census; the others wait for it and
// answer from the cache, so exactly one report is a miss and every
// report carries the same schedule.
func TestConcurrentMissesCompileOnce(t *testing.T) {
	const n = 8
	c := NewCompiler(Options{Cache: NewShardedCache(0, 1)})
	var censuses atomic.Int32
	var started sync.WaitGroup
	started.Add(n)
	// The leader's census hook holds it until every goroutine has begun,
	// so the others miss the cache while it runs.
	spec := NewSpec(workloads.ThreeDFT(), WithSelect(patsel.Config{C: 5, Pdef: 4}),
		WithStageHook(func(info StageInfo) {
			if info.Stage == StageCensus {
				censuses.Add(1)
				started.Wait()
			}
		}))
	reps, errs := compileConcurrently(c, n, &started,
		func(int) context.Context { return context.Background() },
		func(int) Spec { return spec })

	if got := censuses.Load(); got != 1 {
		t.Errorf("%d goroutines ran %d censuses, want 1", n, got)
	}
	misses := 0
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !rep.CacheHit {
			misses++
		}
		if !reflect.DeepEqual(rep.Schedule.CycleOf, reps[0].Schedule.CycleOf) || rep.Span != reps[0].Span {
			t.Errorf("goroutine %d: schedule %v span %d, goroutine 0: %v span %d",
				i, rep.Schedule.CycleOf, rep.Span, reps[0].Schedule.CycleOf, reps[0].Span)
		}
	}
	if misses != 1 {
		t.Errorf("%d of %d reports are cache misses, want 1", misses, n)
	}
}

// TestConcurrentMissesOutliveTheLeader: when the compile the others wait
// for fails — its context is cancelled, or it panics — it caches
// nothing, and every waiting compile runs on its own and succeeds.
func TestConcurrentMissesOutliveTheLeader(t *testing.T) {
	const n = 8
	for _, mode := range []string{"cancel", "panic"} {
		t.Run(mode, func(t *testing.T) {
			c := NewCompiler(Options{Cache: NewShardedCache(0, 1)})
			g := workloads.ThreeDFT()
			var led atomic.Bool
			var started sync.WaitGroup
			started.Add(n)
			ctxs := make([]context.Context, n)
			cancels := make([]context.CancelFunc, n)
			for i := range ctxs {
				ctxs[i], cancels[i] = context.WithCancel(context.Background())
				defer cancels[i]()
			}
			// Only the leader runs a census while the others wait, so the
			// first census hook to fire is the leader's.
			specFor := func(i int) Spec {
				return NewSpec(g, WithSelect(patsel.Config{C: 5, Pdef: 4}),
					WithStageHook(func(info StageInfo) {
						if info.Stage != StageCensus || !led.CompareAndSwap(false, true) {
							return
						}
						started.Wait()
						if mode == "panic" {
							panic("leader fails")
						}
						cancels[i]()
					}))
			}
			reps, errs := compileConcurrently(c, n, &started, func(i int) context.Context { return ctxs[i] }, specFor)

			failed, misses := 0, 0
			var first *Report
			for i, err := range errs {
				if err != nil {
					var pe *PanicError
					if (mode == "cancel" && !errors.Is(err, context.Canceled)) || (mode == "panic" && !errors.As(err, &pe)) {
						t.Errorf("goroutine %d: %v", i, err)
					}
					failed++
					continue
				}
				if !reps[i].CacheHit {
					misses++
				}
				if first == nil {
					first = reps[i]
				} else if !reflect.DeepEqual(reps[i].Schedule.CycleOf, first.Schedule.CycleOf) {
					t.Errorf("goroutine %d: schedule %v, want %v", i, reps[i].Schedule.CycleOf, first.Schedule.CycleOf)
				}
			}
			if failed != 1 || misses < 1 {
				t.Errorf("%d failed, %d compiled past the cache; want the leader alone to fail and at least one other to compile", failed, misses)
			}
		})
	}
}
