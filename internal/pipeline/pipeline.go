// Package pipeline is the compilation engine behind every front end: the
// staged Compiler (parse → census → select → schedule → allocate, with
// per-stage timings, stage hooks, partial compiles and a content-addressed
// result cache). CompileAll fans many specs out across a bounded worker
// pool with per-spec error isolation.
//
// One Spec goes in, one Report comes out, and every caller — the CLIs,
// the examples, the mpschedd daemon — routes through the same staged
// flow, so repeated workloads are answered from the cache without
// touching the enumeration engine at all.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// DefaultParallelEnumNodes is the graph size at which enumeration switches
// to the worker-pool backend. Below it the sequential enumerator wins: the
// fan-out costs more than the subtree work saves.
const DefaultParallelEnumNodes = 48

// Options configures a Compiler.
type Options struct {
	// Cache, when non-nil, serves repeated (graph, config) specs without
	// recompiling. Share one cache across compiles to stay warm.
	Cache ResultCache
}

// CompileAll compiles every spec across a pool of workers goroutines
// (≤ 0 means GOMAXPROCS) and returns one report and one error per spec,
// aligned with specs: exactly one of reps[i] and errs[i] is non-nil, and
// each error names its spec. One spec failing never aborts the others.
// When ctx is cancelled, in-flight compiles stop at their next stage
// boundary and every spec not yet started fails with ctx's error.
func (c *Compiler) CompileAll(ctx context.Context, specs []Spec, workers int) (reps []*Report, errs []error) {
	reps = make([]*Report, len(specs))
	errs = make([]error, len(specs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(specs))
	fail := func(i int, err error) {
		errs[i] = fmt.Errorf("pipeline: job %q: %w", specs[i].Label(), err)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rep, err := c.Compile(ctx, specs[i])
				if err != nil {
					fail(i, err)
					continue
				}
				reps[i] = rep
			}
		}()
	}
dispatch:
	for i := range specs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Fail everything not handed to a worker; in-flight compiles
			// notice the cancellation themselves.
			for j := i; j < len(specs); j++ {
				fail(j, ctx.Err())
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return reps, errs
}
