package main

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the percentile is one or two unlucky requests, not
// a property of the system.
const minBeyond = 10

// dist is an exact latency distribution: every sample is kept and sorted,
// so quantiles are order statistics rather than histogram estimates.
type dist struct{ sorted []time.Duration }

func newDist(xs []time.Duration) dist {
	s := slices.Clone(xs)
	slices.Sort(s)
	return dist{s}
}

func (d dist) n() int { return len(d.sorted) }

// quantile returns the nearest-rank q-quantile and how many samples are
// strictly greater than it. ok is false when fewer than minBeyond are.
func (d dist) quantile(q float64) (v time.Duration, beyond int, ok bool) {
	n := len(d.sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	v = d.sorted[rank-1]
	beyond = n - sort.Search(n, func(i int) bool { return d.sorted[i] > v })
	return v, beyond, beyond >= minBeyond
}

// percentile renders a quantile of d as the named metric, in units of
// per, with the sample count and the samples beyond it in the note. A
// percentile with fewer than minBeyond samples beyond it is missing.
func percentile(name string, d dist, q float64, per time.Duration) metric {
	v, beyond, ok := d.quantile(q)
	m := newMetric(name, float64(v)/float64(per), fmt.Sprintf("n=%d, %d beyond", d.n(), beyond))
	if !ok {
		m.Note += fmt.Sprintf(", need %d: run longer", minBeyond)
		m.Missing = true
	}
	return m
}

// medianDuration is the nearest-rank median of xs (xs must be non-empty).
func medianDuration(xs []time.Duration) time.Duration {
	v, _, _ := newDist(xs).quantile(0.5)
	return v
}

// sample is one request that completed inside a measured window.
type sample struct {
	done     time.Duration // completion, from the window's start
	lat      time.Duration
	compiles int
	// group identifies the distinct request: its input index, -1 for a
	// never-seen graph, 0 for every batch envelope.
	group int
}

// phase is what one measured window saw: every request that completed
// inside it.
type phase struct {
	window  time.Duration
	samples []sample
}

// timeSlices is how many consecutive slices a window's metrics are
// medians over, so that a burst of outside interference moves one slice
// rather than the result.
const timeSlices = 20

func (p phase) compiles() int {
	n := 0
	for _, s := range p.samples {
		n += s.compiles
	}
	return n
}

// throughput is the median, over timeSlices equal slices of the window,
// of the compiles completed per second.
func (p phase) throughput() float64 {
	per := make([]float64, timeSlices)
	w := p.window / timeSlices
	for _, s := range p.samples {
		per[min(int(s.done/w), timeSlices-1)] += float64(s.compiles)
	}
	for i := range per {
		per[i] /= w.Seconds()
	}
	return median(per)
}

// typicalLatency is the median request's latency as the named metric:
// each distinct request's median latency, geometric-mean over the distinct
// requests. When graph costs differ a hundredfold, the overall median
// falls in the gap between two graphs' latencies and jumps between them
// from run to run; the mean of per-graph medians does not.
func (p phase) typicalLatency(name string, per time.Duration) metric {
	groups := map[int][]time.Duration{}
	for _, s := range p.samples {
		groups[s.group] = append(groups[s.group], s.lat)
	}
	keys := slices.Sorted(maps.Keys(groups))
	logSum, missing := 0.0, false
	for _, k := range keys {
		v, _, ok := newDist(groups[k]).quantile(0.5)
		missing = missing || !ok || v <= 0
		logSum += math.Log(float64(max(v, 1)))
	}
	note := fmt.Sprintf("median, n=%d", len(p.samples))
	if len(keys) > 1 {
		note = fmt.Sprintf("geometric mean of the medians of %d distinct requests, n=%d", len(keys), len(p.samples))
	}
	m := newMetric(name, math.Exp(logSum/float64(max(len(keys), 1)))/float64(per), note)
	if missing || len(keys) == 0 {
		m.Note += fmt.Sprintf(", a request with fewer than %d samples: run longer", 2*minBeyond)
		m.Missing = true
	}
	return m
}

// latency is the q-quantile of request latency as the named metric: the
// median of the quantiles of consecutive slices of the samples, in
// completion order, cut into as many slices (at most timeSlices) as leave
// each minBeyond samples beyond its quantile. With fewer than three such
// slices it is the quantile of all samples.
func (p phase) latency(name string, q float64, per time.Duration) metric {
	s := slices.Clone(p.samples)
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	lat := make([]time.Duration, len(s))
	for i := range s {
		lat[i] = s[i].lat
	}
	need := int(math.Ceil(minBeyond / (1 - q)))
	k := min(timeSlices, len(lat)/need)
	if k < 3 {
		return percentile(name, newDist(lat), q, per)
	}
	vals := make([]float64, k)
	for i := range vals {
		v, _, _ := newDist(lat[i*len(lat)/k : (i+1)*len(lat)/k]).quantile(q)
		vals[i] = float64(v) / float64(per)
	}
	return newMetric(name, median(vals), fmt.Sprintf("median of %d slices, n=%d", k, len(lat)))
}

// median is the middle of xs, or the mean of its two middle values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
