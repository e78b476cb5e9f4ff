package main

import (
	"fmt"
	"slices"

	"mpsched/internal/dfg"
	"mpsched/internal/pattern"
	"mpsched/internal/wire"
)

// verifySchedule checks a compile response against the graph that was
// sent, without trusting the compiler that produced it, and returns the
// bench's own lower bound on the schedule length. want > 0 pins the exact
// cycle count (the paper's Table 2 gives 7 for the 3DFT at Pdef=4).
func verifySchedule(g *dfg.Graph, r *wire.CompileResponse, want int) (bound int, err error) {
	n := g.N()
	if len(r.CycleOf) != n {
		return 0, fmt.Errorf("%d of %d nodes scheduled", len(r.CycleOf), n)
	}
	if r.Cycles < 1 || len(r.PatternOf) != r.Cycles {
		return 0, fmt.Errorf("cycles = %d but %d pattern assignments", r.Cycles, len(r.PatternOf))
	}
	patterns := make([]pattern.Pattern, len(r.SchedulerPatterns))
	for i, s := range r.SchedulerPatterns {
		if patterns[i], err = pattern.Parse(s); err != nil {
			return 0, err
		}
	}

	demand := make([]map[dfg.Color]int, r.Cycles)
	last := -1
	for v, c := range r.CycleOf {
		if c < 0 || c >= r.Cycles {
			return 0, fmt.Errorf("node %s in cycle %d of %d", g.NameOf(v), c, r.Cycles)
		}
		if demand[c] == nil {
			demand[c] = map[dfg.Color]int{}
		}
		demand[c][g.ColorOf(v)]++
		last = max(last, c)
	}
	if r.Cycles != last+1 {
		return 0, fmt.Errorf("cycles = %d but the last busy cycle is %d", r.Cycles, last)
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Preds(v) {
			if r.CycleOf[u] >= r.CycleOf[v] {
				return 0, fmt.Errorf("edge %s→%s runs in cycles %d→%d", g.NameOf(u), g.NameOf(v), r.CycleOf[u], r.CycleOf[v])
			}
		}
	}
	for c, d := range demand {
		p := r.PatternOf[c]
		if p < 0 || p >= len(patterns) {
			return 0, fmt.Errorf("cycle %d uses pattern %d of %d", c, p, len(patterns))
		}
		if !patterns[p].Fits(d) {
			return 0, fmt.Errorf("cycle %d needs %v, over its pattern %s", c, d, patterns[p])
		}
	}

	bound = lowerBound(g, patterns)
	if r.Cycles < bound {
		return 0, fmt.Errorf("%d cycles, below the lower bound %d", r.Cycles, bound)
	}
	if want > 0 && r.Cycles != want {
		return 0, fmt.Errorf("%d cycles, want %d", r.Cycles, want)
	}
	return bound, nil
}

// lowerBound is the bench's own bound on schedule length: the longest
// dependency chain (one node per cycle), and for every color the cycles
// needed when each one runs as many nodes of that color as the most
// generous pattern holds.
func lowerBound(g *dfg.Graph, ps []pattern.Pattern) int {
	n := g.N()
	// Longest chain by Kahn's algorithm; depth[v] counts nodes up to v.
	depth := make([]int, n)
	indeg := make([]int, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] = len(g.Preds(v)); indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	bound := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		depth[v]++
		bound = max(bound, depth[v])
		for _, w := range g.Succs(v) {
			depth[w] = max(depth[w], depth[v])
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	for c, count := range g.ColorCounts() {
		per := 0
		for _, p := range ps {
			per = max(per, p.Count(c))
		}
		if per > 0 {
			bound = max(bound, (count+per-1)/per)
		}
	}
	return bound
}

// sameSchedule reports whether two responses carry the same schedule.
// One (graph, config) pair has one answer, whichever codec, cache tier or
// router path served it.
func sameSchedule(a, b *wire.CompileResponse) bool {
	return a.Cycles == b.Cycles &&
		slices.Equal(a.CycleOf, b.CycleOf) &&
		slices.Equal(a.PatternOf, b.PatternOf) &&
		slices.Equal(a.SchedulerPatterns, b.SchedulerPatterns)
}
