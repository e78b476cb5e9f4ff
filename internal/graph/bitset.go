package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitSet is a fixed-capacity set of small non-negative integers, backed by a
// []uint64. It is the workhorse behind reachability matrices and antichain
// enumeration, where dense membership tests dominate.
//
// The zero value is an empty set of capacity 0; use NewBitSet to size it.
type BitSet struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitSet returns an empty set able to hold values in [0, n).
func NewBitSet(n int) *BitSet {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBitSet with negative size %d", n))
	}
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the capacity in bits (not the population count).
func (b *BitSet) Len() int { return b.n }

// Words exposes the backing words: element i is bit i&63 of word i>>6, and
// bits at or above Len are always clear. It is a read-only view for word-
// parallel kernels (the antichain walk) that combine several sets per
// word; writing through it bypasses the set's bounds checks.
func (b *BitSet) Words() []uint64 { return b.words }

// Set adds i to the set.
func (b *BitSet) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear removes i from the set.
func (b *BitSet) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Has reports whether i is in the set.
func (b *BitSet) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

func (b *BitSet) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("graph: bitset index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of elements in the set.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets b to the union b ∪ other. The sets must have equal capacity.
func (b *BitSet) Or(other *BitSet) {
	b.sameSize(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And sets b to the intersection b ∩ other.
func (b *BitSet) And(other *BitSet) {
	b.sameSize(other)
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// AndNot sets b to the difference b ∖ other.
func (b *BitSet) AndNot(other *BitSet) {
	b.sameSize(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// Intersects reports whether b ∩ other is non-empty.
func (b *BitSet) Intersects(other *BitSet) bool {
	b.sameSize(other)
	for i, w := range other.words {
		if b.words[i]&w != 0 {
			return true
		}
	}
	return false
}

func (b *BitSet) sameSize(other *BitSet) {
	if b.n != other.n {
		panic(fmt.Sprintf("graph: bitset size mismatch %d vs %d", b.n, other.n))
	}
}

// Clone returns an independent copy of the set.
func (b *BitSet) Clone() *BitSet {
	c := &BitSet{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Reset removes all elements without reallocating.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Equal reports whether the two sets hold the same elements. Sets of
// different capacity are never equal.
func (b *BitSet) Equal(other *BitSet) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range other.words {
		if b.words[i] != w {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. It stops early if fn
// returns false.
func (b *BitSet) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Elems returns the elements in ascending order.
func (b *BitSet) Elems() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{1 4 17}".
func (b *BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
