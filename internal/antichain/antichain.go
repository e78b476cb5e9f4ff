// Package antichain enumerates the antichains of a data-flow graph — the
// sets of pairwise-parallelizable nodes that can share a clock cycle — and
// classifies them by pattern, producing the node-frequency vectors h(p̄, n)
// that drive the paper's pattern selection algorithm (§5.1).
//
// The span limit is a condition on pairs. Span(A) = U(max ASAP − min ALAP)
// is the largest ASAP(u) − ALAP(w) over the ordered pairs (u, w) of A,
// clamped at 0, and a pair with u = w adds nothing above 0 because
// ASAP(n) ≤ ALAP(n) on every node. So Span(A) ≤ s exactly when
// Span({u, w}) ≤ s for every pair of A, and an antichain within the limit
// is a clique of one fixed graph: u and w are adjacent when they are
// incomparable, ASAP(w) ≤ ALAP(u)+s and ALAP(w) ≥ ASAP(u)−s. Each census
// builds that graph once, as one row of bits per node (its span row), and
// shares the rows read-only with its parallel workers.
//
// Every walk is clique enumeration over the span rows: a depth-first
// search in ascending node order, so every antichain is produced exactly
// once, whose candidate set at each depth is the parent's candidates ∩ the
// new member's row, one AND per word. A node in the candidate set keeps the
// set within the span limit, so the walk never visits a set that breaks
// it, and no walk tracks the set's levels; CountTable alone computes each
// antichain's span, to bucket it.
//
// The census does not visit the last two levels. Once the growing set A has
// MaxSize−2 members, its candidate set S holds every node that extends it.
// Each u in S is one (MaxSize−1)-antichain A+u, and its partner set P(u) =
// S ∩ row(u) holds every w that completes A+u to a full-size antichain.
// Membership in P is symmetric (A+u+w is A+w+u), so P(u) covers u's
// full-size antichains on both sides of u, and per color c
// popcount(P(u) ∩ color mask) is at once u's frequency in class A+u+c and
// u's share of that class's count, where each pair is seen from both ends.
// The classes' counts and their members' frequencies are added once per A.
// The last two levels are most of a census (fft:8: 1,125,256 of 1,146,198),
// so most antichains are counted, not visited, and none is iterated as a
// leaf. Streaming walks (ForEach, CountTable) and KeepSets censuses still
// visit every antichain, over the same candidate sets.
//
// The census hot path is allocation-free per antichain: the pattern of the
// growing set is maintained incrementally as an interned integer id (see
// patternTable), class statistics live in a dense slice indexed by that id,
// and candidate sets are drawn from a preallocated word stack. The color
// masks are computed once per graph and cached beside its incomparability
// sets. The exported Result — keyed classes, pattern values, string keys —
// is materialised once, after the walk.
package antichain

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mpsched/internal/dfg"
	"mpsched/internal/pattern"
)

// Config bounds the enumeration.
type Config struct {
	// MaxSize is the machine's resource count C: antichains of size 1..C
	// are enumerated. Must be in 1..MaxSizeLimit.
	MaxSize int
	// MaxSpan limits Span(A) = U(max ASAP − min ALAP). Negative means
	// unlimited. The paper's Theorem 1 motivates small limits: scheduling a
	// large-span antichain in one cycle lengthens every schedule.
	MaxSpan int
	// KeepSets retains the member lists of every antichain per class
	// (needed to print the paper's Table 4; costs memory on big graphs).
	KeepSets bool
}

// DefaultConfig enumerates up to the Montium's C=5 with the paper's span
// limit of 1 — the operating point §5.1 recommends.
func DefaultConfig() Config { return Config{MaxSize: 5, MaxSpan: 1} }

// Class aggregates all antichains sharing one pattern (color multiset).
type Class struct {
	Pattern pattern.Pattern
	// ID is the interned pattern id: the class's index in Result.ByID.
	// Ids are dense and assigned in enumeration discovery order; they are
	// stable only within one Result — Enumerate and EnumerateParallel
	// (and different worker counts) may order the same classes
	// differently, and ids never transfer across graphs.
	ID int
	// Count is the number of antichains with this pattern.
	Count int
	// NodeFreq[id] is h(p̄, id): how many of the class's antichains contain
	// node id — the paper's measure of how flexibly p̄ schedules the node.
	NodeFreq []int
	// Sets holds the antichains themselves when Config.KeepSets is true,
	// each sorted ascending, in enumeration order.
	Sets [][]int
}

// Result is the output of Enumerate.
type Result struct {
	// BySize[k] counts enumerated antichains of size k (index 0 unused).
	BySize []int
	// Classes maps canonical pattern keys to their aggregate statistics.
	Classes map[string]*Class
	// ByID indexes the same classes by interned pattern id — the dense
	// iteration view consumers on the hot path use instead of sorted map
	// keys. Entries are nil for interned ids with no counted antichain
	// (only id 0, the empty pattern).
	ByID []*Class
	// NodeCount is the number of nodes in the source graph.
	NodeCount int
}

// Total returns the number of enumerated antichains across all sizes.
func (r *Result) Total() int {
	t := 0
	for _, c := range r.BySize {
		t += c
	}
	return t
}

// ClassList returns the classes ordered by interned pattern id. For
// Results built by hand (no ByID), it falls back to ascending-key map
// order, the historical iteration order.
func (r *Result) ClassList() []*Class {
	if r.ByID != nil {
		out := make([]*Class, 0, len(r.ByID))
		for _, cl := range r.ByID {
			if cl != nil {
				out = append(out, cl)
			}
		}
		return out
	}
	keys := make([]string, 0, len(r.Classes))
	for k := range r.Classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Class, len(keys))
	for i, k := range keys {
		out[i] = r.Classes[k]
	}
	return out
}

// SortedClasses returns the classes ordered by descending count, breaking
// ties by pattern key, for stable reporting.
func (r *Result) SortedClasses() []*Class {
	out := make([]*Class, 0, len(r.Classes))
	for _, c := range r.Classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Pattern.Compare(out[j].Pattern) < 0
	})
	return out
}

// finish materialises the exported views from the dense census: pads the
// per-id class slice to the table, builds each class's pattern value, and
// indexes the classes by canonical key.
func (r *Result) finish(classes []*Class, t *patternTable, colors []dfg.Color) {
	for len(classes) < t.len() {
		classes = append(classes, nil)
	}
	r.ByID = classes
	r.Classes = make(map[string]*Class, len(classes))
	for id, cl := range classes {
		if cl == nil {
			continue
		}
		cl.Pattern = t.pattern(int32(id), colors)
		r.Classes[cl.Pattern.Key()] = cl
	}
}

// censusAccumulator aggregates the per-id class census for one
// enumerator: size histogram, per-class counts, node frequencies, and
// (optionally) retained sets. Both the sequential and the per-worker
// parallel enumerations accumulate through it, so class accounting has
// exactly one implementation.
type censusAccumulator struct {
	e        *enumerator
	bySize   []int
	classes  []*Class // indexed by pattern id; nil until first antichain
	n        int      // nodes in the graph
	keepSets bool
	// Scratch of countTwoLevels, reused below every set it counts: the
	// colors present in S with their masks over S's words, one member's
	// partner words, the pair counts per partner color, and the pair
	// classes per member and partner color.
	present []int32
	masks   []uint64
	part    []uint64
	pairs   []int
	pairCls []*Class
}

// newCensusAccumulator hooks a census onto the walk. bySize is sized by
// the largest antichain the graph can hold, not by MaxSize. The counters
// and scratch it writes on every set are padded onto their own cache
// lines, so parallel workers never write to a line another worker's
// census uses.
func newCensusAccumulator(e *enumerator, cfg Config, n int) *censusAccumulator {
	a := &censusAccumulator{
		e:        e,
		bySize:   padded[int](min(cfg.MaxSize, n) + 1),
		n:        n,
		keepSets: cfg.KeepSets,
		present:  make([]int32, 0, len(e.cc.Colors)),
		masks:    make([]uint64, 0, len(e.cc.Colors)*e.words),
		part:     padded[uint64](e.words),
		pairs:    padded[int](len(e.cc.Colors)),
	}
	e.census = a
	return a
}

// padded returns a zeroed slice of n 8-byte elements with a 64-byte cache
// line of unused memory on each side.
func padded[T int | uint64](n int) []T {
	const line = 8
	return make([]T, n+2*line)[line : line+n : line+n]
}

// class returns the class of pattern id pid, creating it on first use.
func (a *censusAccumulator) class(pid int32) *Class {
	for int(pid) >= len(a.classes) {
		a.classes = append(a.classes, nil)
	}
	cl := a.classes[pid]
	if cl == nil {
		cl = &Class{ID: int(pid), NodeFreq: make([]int, a.n)}
		a.classes[pid] = cl
	}
	return cl
}

// visit counts the current antichain, of pattern id pid.
func (a *censusAccumulator) visit(pid int32) {
	a.bySize[len(a.e.current)]++
	cl := a.class(pid)
	cl.Count++
	for _, nd := range a.e.current {
		cl.NodeFreq[nd]++
	}
	if a.keepSets {
		cl.Sets = append(cl.Sets, append([]int(nil), a.e.current...))
	}
}

// add counts k more antichains of class cl, each the current antichain
// plus grow more members, and each containing every current member.
func (a *censusAccumulator) add(cl *Class, grow, k int) {
	a.bySize[len(a.e.current)+grow] += k
	cl.Count += k
	for _, nd := range a.e.current {
		cl.NodeFreq[nd] += k
	}
}

// countTwoLevels accounts every antichain one and two members larger than
// the current antichain A (pattern pid) without visiting them. s holds,
// from word from on, the candidate set S: each u in S is the antichain
// A+u, and its partners P(u) = S ∩ row(u) are the nodes w that make A+u+w
// an antichain. Per partner color c, their popcount k is u's frequency in
// class A+u+c, and k summed over the u of one color c′ counts each
// antichain of class A+c′+c once, from u's end, or twice when c′ = c, from
// both ends. Only the colors present in S can occur; their masks over S's
// words are gathered once. The u are taken one color at a time, so one
// row of pair counts serves them; the pair classes are resolved at their
// first pair into a matrix cleared once per A.
func (a *censusAccumulator) countTwoLevels(s []uint64, from int, pid int32) {
	e := a.e
	to := len(s)
	for s[to-1] == 0 {
		to--
	}
	s = s[from:to]
	w := len(s)
	present, masks := a.present[:0], a.masks[:0]
	for c, m := range e.cc.Masks {
		mask := m.Words()[from:to]
		for j, sj := range s {
			if sj&mask[j] != 0 {
				present = append(present, int32(c))
				masks = append(masks, mask...)
				break
			}
		}
	}
	np := len(present)
	if cap(a.pairCls) < np*np {
		a.pairCls = make([]*Class, np*np)
	}
	pairCls := a.pairCls[:np*np]
	clear(pairCls)
	rows, words := e.rows, e.words
	part, pairs := a.part[:w], a.pairs[:np]
	for ci, cu := range present {
		id := e.table.child(pid, cu)
		cl := a.class(id)
		cls := pairCls[ci*np : (ci+1)*np]
		clear(pairs)
		k1 := 0
		mask := masks[ci*w : (ci+1)*w]
		for i, si := range s {
			for word := si & mask[i]; word != 0; word &= word - 1 {
				u := (from+i)<<6 | bits.TrailingZeros64(word)
				k1++
				cl.NodeFreq[u]++
				row := rows[u*words+from : u*words+to]
				live := uint64(0)
				for j, sj := range s {
					part[j] = sj & row[j]
					live |= part[j]
				}
				if live == 0 {
					continue
				}
				for c := range np {
					k := 0
					for j, cw := range masks[c*w : (c+1)*w] {
						k += bits.OnesCount64(part[j] & cw)
					}
					if k == 0 {
						continue
					}
					pair := cls[c]
					if pair == nil {
						pair = a.class(e.table.child(id, present[c]))
						cls[c] = pair
					}
					pair.NodeFreq[u] += k
					pairs[c] += k
				}
			}
		}
		a.add(cl, 1, k1)
		// Pairs of a lower partner color were added with that color's u.
		if k := pairs[ci]; k > 0 {
			a.add(cls[ci], 2, k/2)
		}
		for c := ci + 1; c < np; c++ {
			if k := pairs[c]; k > 0 {
				a.add(cls[c], 2, k)
			}
		}
	}
}

// Enumerate finds every antichain of size 1..cfg.MaxSize and span ≤
// cfg.MaxSpan and returns the per-size census plus per-pattern classes.
func Enumerate(d *dfg.Graph, cfg Config) (*Result, error) {
	an, err := analyse(d, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{BySize: make([]int, cfg.MaxSize+1), NodeCount: d.N()}
	if an == nil {
		res.Classes = map[string]*Class{}
		return res, nil
	}
	e := an.newWalkState(cfg, true)
	acc := newCensusAccumulator(e, cfg, an.n)
	e.run(0, 1)
	copy(res.BySize, acc.bySize)
	res.finish(acc.classes, e.table, an.cc.Colors)
	return res, nil
}

// ForEach streams every bounded antichain to fn in canonical (ascending
// member, lexicographic) order. fn returning false stops the enumeration.
// The slice passed to fn is reused; callers must copy to retain it.
func ForEach(d *dfg.Graph, cfg Config, fn func(nodes []int) bool) error {
	an, err := analyse(d, cfg)
	if err != nil || an == nil {
		return err
	}
	e := an.newWalkState(cfg, false)
	e.visit = func() bool { return fn(e.current) }
	e.run(0, 1)
	return nil
}

// analysis is the read-only input of a walk: the span rows of one census
// and the graph's color classes. Parallel workers share one.
type analysis struct {
	n, words int
	// rows[u*words:(u+1)*words] is row(u): the nodes w with u ∥ w,
	// ASAP(w) ≤ ALAP(u)+MaxSpan and ALAP(w) ≥ ASAP(u)−MaxSpan, or every
	// node incomparable to u when MaxSpan < 0. A set is an antichain
	// within the span limit exactly when each member is in the row of
	// every other (see the package comment).
	rows []uint64
	cc   *dfg.ColorClasses
}

// MaxSizeLimit is the largest Config.MaxSize: a pattern holds at most
// MaxSize nodes of one color, and the pattern table keys a color's count
// in two bytes (see countsKey).
const MaxSizeLimit = 65535

// analyse validates the inputs and builds the census's analysis. It
// returns (nil, nil) for the empty graph — nothing to enumerate.
func analyse(d *dfg.Graph, cfg Config) (*analysis, error) {
	if cfg.MaxSize < 1 {
		return nil, fmt.Errorf("antichain: MaxSize %d < 1", cfg.MaxSize)
	}
	if cfg.MaxSize > MaxSizeLimit {
		return nil, fmt.Errorf("antichain: MaxSize %d > %d", cfg.MaxSize, MaxSizeLimit)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, nil
	}
	inc, lv := d.Incomparability(), d.Levels()
	n, words := d.N(), (d.N()+63)/64
	an := &analysis{n: n, words: words, rows: make([]uint64, n*words), cc: d.ColorClasses()}
	// Level l of asapAtMost holds the nodes with ASAP ≤ l and level l of
	// alapAtLeast those with ALAP ≥ l, so row(u) is inc(u) ∩ one level of
	// each, one AND a word. A bound outside 0…ASAPmax is clamped to the
	// level that holds every node.
	levels := lv.ASAPMax + 1
	asapAtMost, alapAtLeast := make([]uint64, levels*words), make([]uint64, levels*words)
	for v := range n {
		asapAtMost[lv.ASAP[v]*words+v>>6] |= 1 << uint(v&63)
		alapAtLeast[lv.ALAP[v]*words+v>>6] |= 1 << uint(v&63)
	}
	for l := 1; l < levels; l++ {
		for j := range words {
			asapAtMost[l*words+j] |= asapAtMost[(l-1)*words+j]
			alapAtLeast[(levels-1-l)*words+j] |= alapAtLeast[(levels-l)*words+j]
		}
	}
	for u, set := range inc {
		hi, lo := levels-1, 0
		if cfg.MaxSpan >= 0 {
			hi, lo = min(lv.ALAP[u]+cfg.MaxSpan, levels-1), max(lv.ASAP[u]-cfg.MaxSpan, 0)
		}
		atMost, atLeast := asapAtMost[hi*words:(hi+1)*words], alapAtLeast[lo*words:(lo+1)*words]
		row := an.row(u)
		for j, w := range set.Words() {
			row[j] = w & atMost[j] & atLeast[j]
		}
	}
	return an, nil
}

// row returns the span row of node u.
func (an *analysis) row(u int) []uint64 {
	return an.rows[u*an.words : (u+1)*an.words : (u+1)*an.words]
}

// enumerator is the DFS state: the shared read-only analysis plus the
// mutable walk state (current set, candidate stack, pattern table) owned
// by one enumeration.
type enumerator struct {
	// The walk writes current on every step: a cache line of padding at
	// each end keeps it off the lines of another worker's state.
	_ [64]byte
	*analysis
	maxSize int
	// census, when set, counts every antichain; without KeepSets it counts
	// the last two levels below each (MaxSize−2)-antichain instead of
	// visiting them. Otherwise visit is called for every antichain
	// (members in e.current); false stops the walk.
	census *censusAccumulator
	visit  func() bool
	// current is the growing antichain, reused across the whole walk.
	current []int
	// stack[d-1] holds the candidate words below an antichain of size d,
	// one preallocated row per depth.
	stack [][]uint64
	// table maintains the interned pattern; it is nil for pattern-free
	// walks (ForEach, CountTable).
	table *patternTable
	_     [64]byte
}

// newWalkState assembles the mutable DFS state (current set, candidate
// stack, and a pattern table if needPatterns) over the shared analysis.
// Both the sequential enumerator and each parallel worker build theirs
// here, padded like the census counters. No antichain has more than n
// members, so the state is sized by min(MaxSize, n).
func (an *analysis) newWalkState(cfg Config, needPatterns bool) *enumerator {
	depth := min(cfg.MaxSize, an.n)
	rows := padded[uint64]((depth - 1) * an.words)
	e := &enumerator{
		analysis: an,
		maxSize:  cfg.MaxSize,
		current:  padded[int](depth)[:0],
		stack:    make([][]uint64, depth-1),
	}
	for i := range e.stack {
		e.stack[i] = rows[i*an.words : (i+1)*an.words : (i+1)*an.words]
	}
	if needPatterns {
		e.table = newPatternTable(len(an.cc.Colors))
	}
	return e
}

// run walks the roots first, first+stride, first+2·stride, … in ascending
// order: stride 1 is the whole enumeration, a parallel worker takes one
// residue class.
func (e *enumerator) run(first, stride int) {
	for v := first; v < e.n; v += stride {
		if !e.extend(v, nil, 0) {
			return
		}
	}
}

// extend adds v to the current antichain, emits it, and grows it by every
// candidate above v. cand is the candidate set valid before adding v (nil
// at a root), and pid is the interned pattern id before adding v. Returns
// false to abort the whole enumeration.
func (e *enumerator) extend(v int, cand []uint64, pid int32) bool {
	if e.table != nil {
		pid = e.table.child(pid, e.cc.Of[v])
	}
	e.current = append(e.current, v)
	ok := true
	if e.census != nil {
		e.census.visit(pid)
	} else {
		ok = e.visit()
	}
	if ok && len(e.current) < e.maxSize {
		if next, from := e.candidates(v, cand); next != nil {
			if e.census != nil && !e.census.keepSets && len(e.current) == e.maxSize-2 {
				e.census.countTwoLevels(next, from, pid)
			} else {
				ok = e.descend(next, from, pid)
			}
		}
	}
	e.current = e.current[:len(e.current)-1]
	return ok
}

// candidates writes into the current depth's stack row the nodes above v
// that extend the current antichain: cand ∩ row(v). Only words from
// (v+1)/64 on are written, and from is that first word; every later
// reader of the row starts at or past it. Returns a nil row when there is
// no candidate.
func (e *enumerator) candidates(v int, cand []uint64) (next []uint64, from int) {
	start := v + 1
	if start >= e.n {
		return nil, 0
	}
	row := e.row(v)
	if cand == nil {
		cand = row
	}
	next = e.stack[len(e.current)-1]
	from = start >> 6
	// The first word also drops the bits up to v.
	live := cand[from] & row[from] &^ (1<<uint(start&63) - 1)
	next[from] = live
	for i := from + 1; i < len(next); i++ {
		next[i] = cand[i] & row[i]
		live |= next[i]
	}
	if live == 0 {
		return nil, 0
	}
	return next, from
}

// descend extends the current antichain by each candidate in next, in
// ascending order. Returns false to abort the whole enumeration.
func (e *enumerator) descend(next []uint64, from int, pid int32) bool {
	for i := from; i < len(next); i++ {
		for word := next[i]; word != 0; word &= word - 1 {
			if !e.extend(i<<6|bits.TrailingZeros64(word), next, pid) {
				return false
			}
		}
	}
	return true
}

// SpanLowerBound is Theorem 1: if the nodes of antichain A run in one clock
// cycle, any complete schedule needs at least ASAPmax + Span(A) + 1 cycles.
func SpanLowerBound(d *dfg.Graph, nodes []int) int {
	lv := d.Levels()
	return lv.ASAPMax + lv.Span(nodes) + 1
}

// IsAntichain reports whether the node set is pairwise parallelizable.
func IsAntichain(d *dfg.Graph, nodes []int) bool {
	r := d.Reach()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !r.Parallelizable(nodes[i], nodes[j]) {
				return false
			}
		}
	}
	return true
}

// CountTable computes the paper's Table 5: rows are span limits 0..maxSpan,
// columns antichain sizes 1..maxSize. Entry [s][k] is the number of
// antichains of size k with Span ≤ s.
//
// One enumeration at the loosest limit produces the whole table: each
// antichain is bucketed by its actual span, and rows are prefix-summed —
// an antichain with span t counts for every limit s ≥ t. The old
// implementation re-enumerated once per row, O(maxSpan) times the work.
func CountTable(d *dfg.Graph, maxSize, maxSpan int) ([][]int, error) {
	table := make([][]int, maxSpan+1)
	if maxSpan < 0 {
		return table, nil
	}
	cfg := Config{MaxSize: maxSize, MaxSpan: maxSpan}
	an, err := analyse(d, cfg)
	if err != nil {
		return nil, err
	}
	for s := range table {
		table[s] = make([]int, maxSize+1)
	}
	if an == nil {
		return table, nil
	}
	// maxASAP[k] and minALAP[k] are the levels of the current antichain's
	// first k members. The walk visits each antichain after the prefix one
	// member shorter, and before any other set of that size, so each visit
	// extends the prefix's levels by its last member.
	lv := d.Levels()
	maxASAP, minALAP := make([]int, maxSize+1), make([]int, maxSize+1)
	minALAP[0] = math.MaxInt
	e := an.newWalkState(cfg, false)
	e.visit = func() bool {
		k := len(e.current)
		v := e.current[k-1]
		maxASAP[k], minALAP[k] = max(maxASAP[k-1], lv.ASAP[v]), min(minALAP[k-1], lv.ALAP[v])
		table[max(maxASAP[k]-minALAP[k], 0)][k]++
		return true
	}
	e.run(0, 1)
	for s := 1; s <= maxSpan; s++ {
		for k := 1; k <= maxSize; k++ {
			table[s][k] += table[s-1][k]
		}
	}
	return table, nil
}
