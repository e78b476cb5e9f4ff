package antichain

import (
	"runtime"
	"sync"

	"mpsched/internal/dfg"
)

// partialCensus is one worker's share of the enumeration: an accumulated
// census whose classes are keyed by the worker's own interned pattern ids.
type partialCensus struct {
	acc   *censusAccumulator
	table *patternTable
}

// EnumerateParallel is Enumerate with the enumeration tree's root branches
// fanned out over a worker pool. Each root node owns the canonical
// antichains whose smallest member it is; those subtrees are independent,
// so workers share nothing but the read-only analysis — the census's span
// rows and the graph's color masks — run the same walk as Enumerate over
// their roots, intern patterns into private tables, and merge the
// interned censuses at the end by re-interning each worker-local pattern
// id into the combined table. Each worker allocates its own walk state
// and counters, padded onto cache lines no other worker writes.
//
// Counts and frequency vectors are identical to Enumerate's. When
// cfg.KeepSets is set, per-class set *order* may differ from the
// sequential enumeration (sets are grouped by owning worker); the sets
// themselves are the same.
func EnumerateParallel(d *dfg.Graph, cfg Config, workers int) (*Result, error) {
	an, err := analyse(d, cfg)
	if err != nil {
		return nil, err
	}
	if an == nil {
		return &Result{BySize: make([]int, cfg.MaxSize+1), Classes: map[string]*Class{}}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := an.n
	if workers > n {
		workers = n
	}

	partials := make([]*partialCensus, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := an.newWalkState(cfg, true)
			acc := newCensusAccumulator(e, cfg, n)
			// Static stride partition of the roots.
			e.run(w, workers)
			partials[w] = &partialCensus{acc: acc, table: e.table}
		}(w)
	}
	wg.Wait()

	// Merge. Worker-local pattern ids reflect each worker's discovery
	// order, so classes are unified through a fresh table: the count
	// vector of each local id re-interns to the merged id. Workers are
	// merged in index order, keeping the result deterministic.
	merged := &Result{BySize: make([]int, cfg.MaxSize+1), NodeCount: n}
	mt := newPatternTable(len(an.cc.Colors))
	var classes []*Class
	for _, p := range partials {
		for k, c := range p.acc.bySize {
			merged.BySize[k] += c
		}
		for localID, cl := range p.acc.classes {
			if cl == nil {
				continue
			}
			id := mt.intern(p.table.counts[localID])
			for int(id) >= len(classes) {
				classes = append(classes, nil)
			}
			dst := classes[id]
			if dst == nil {
				cl.ID = int(id)
				classes[id] = cl
				continue
			}
			dst.Count += cl.Count
			for i, h := range cl.NodeFreq {
				dst.NodeFreq[i] += h
			}
			dst.Sets = append(dst.Sets, cl.Sets...)
		}
	}
	merged.finish(classes, mt, an.cc.Colors)
	return merged, nil
}
