package antichain

import (
	"mpsched/internal/dfg"
	"mpsched/internal/pattern"
)

// patternTable interns color multisets (patterns) as dense integer ids.
// Color ids are positions in the graph's sorted color set (see
// dfg.ColorClasses), so a count vector walked in id order yields the
// canonical (sorted) color sequence.
// Id 0 is the empty pattern. Growing an antichain by one node maps its
// pattern id through child() — an O(1) transition-table lookup once the
// child pattern exists — so the enumeration hot path never materialises a
// pattern value, sorts colors, or builds a string key. Distinct patterns
// are bounded by the multiset count C(numColors+maxSize, maxSize), tiny
// next to the number of antichains, so table growth amortises to nothing.
type patternTable struct {
	numColors int
	counts    [][]int32 // counts[id][cid] = multiplicity of color cid
	size      []int32   // total multiplicity of pattern id
	next      [][]int32 // next[id][cid] = id of pattern+color, -1 if unseen
	// index resolves a canonical count vector to its id, consulted only
	// when an unseen (id, color) edge is created: the same multiset is
	// reachable through every insertion order ({a,b} via a→b and b→a),
	// and all orders must land on one id.
	index map[string]int32
}

func newPatternTable(numColors int) *patternTable {
	t := &patternTable{numColors: numColors, index: map[string]int32{}}
	empty := make([]int32, numColors)
	t.addEntry(empty, 0)
	t.index[countsKey(empty)] = 0
	return t
}

func (t *patternTable) addEntry(counts []int32, size int32) int32 {
	id := int32(len(t.counts))
	t.counts = append(t.counts, counts)
	t.size = append(t.size, size)
	nx := make([]int32, t.numColors)
	for i := range nx {
		nx[i] = -1
	}
	t.next = append(t.next, nx)
	return id
}

// len returns the number of interned patterns, including the empty one.
func (t *patternTable) len() int { return len(t.counts) }

// countsKey encodes a count vector for the canonical index. Counts are
// bounded by the enumeration's MaxSize; two little-endian bytes each keep
// the key exact up to 65535.
func countsKey(counts []int32) string {
	buf := make([]byte, 2*len(counts))
	for i, c := range counts {
		buf[2*i] = byte(c)
		buf[2*i+1] = byte(c >> 8)
	}
	return string(buf)
}

// child returns the id of pattern id extended by one occurrence of color
// cid, interning the extension on first use. After the first resolution
// the (id, cid) transition is a table lookup — the hot path allocates
// nothing.
func (t *patternTable) child(id, cid int32) int32 {
	if n := t.next[id][cid]; n >= 0 {
		return n
	}
	return t.newChild(id, cid)
}

// newChild resolves an unseen (id, cid) transition, kept out of child so
// the warm lookup inlines into the walk.
func (t *patternTable) newChild(id, cid int32) int32 {
	counts := make([]int32, t.numColors)
	copy(counts, t.counts[id])
	counts[cid]++
	key := countsKey(counts)
	n, ok := t.index[key]
	if !ok {
		n = t.addEntry(counts, t.size[id]+1)
		t.index[key] = n
	}
	t.next[id][cid] = n
	return n
}

// intern maps a full count vector to its pattern id, creating any missing
// intermediate patterns. Used when merging tables built by independent
// workers, whose ids are assigned in their own DFS discovery order.
func (t *patternTable) intern(counts []int32) int32 {
	id := int32(0)
	for cid := int32(0); int(cid) < t.numColors; cid++ {
		for k := int32(0); k < counts[cid]; k++ {
			id = t.child(id, cid)
		}
	}
	return id
}

// pattern materialises id as an exported pattern value. Colors come out in
// color-id (= ascending color) order, so the result is canonical without
// re-sorting.
func (t *patternTable) pattern(id int32, colors []dfg.Color) pattern.Pattern {
	out := make([]dfg.Color, 0, t.size[id])
	for cid, k := range t.counts[id] {
		for ; k > 0; k-- {
			out = append(out, colors[cid])
		}
	}
	return pattern.FromSorted(out)
}
