package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if b.Count() != 0 {
		t.Fatalf("new set not empty: %d", b.Count())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Has(i) {
			t.Errorf("missing %d", i)
		}
	}
	if b.Has(1) || b.Has(128) {
		t.Error("spurious membership")
	}
	b.Clear(63)
	if b.Has(63) {
		t.Error("Clear(63) failed")
	}
	if got := b.String(); got != "{0 64 129}" {
		t.Errorf("String = %q", got)
	}
}

func TestBitSetHasOutOfRange(t *testing.T) {
	b := NewBitSet(10)
	if b.Has(-1) || b.Has(10) || b.Has(1000) {
		t.Error("out-of-range Has returned true")
	}
}

func TestBitSetSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range did not panic")
		}
	}()
	NewBitSet(4).Set(4)
}

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	a.Set(1)
	a.Set(2)
	a.Set(70)
	b.Set(2)
	b.Set(3)
	b.Set(70)

	union := a.Clone()
	union.Or(b)
	if got := union.Elems(); len(got) != 4 {
		t.Errorf("union = %v", got)
	}

	inter := a.Clone()
	inter.And(b)
	if got := inter.String(); got != "{2 70}" {
		t.Errorf("intersection = %s", got)
	}

	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.String(); got != "{1}" {
		t.Errorf("difference = %s", got)
	}

	if !a.Intersects(b) {
		t.Error("Intersects false, want true")
	}
	c := NewBitSet(100)
	c.Set(99)
	if a.Intersects(c) {
		t.Error("Intersects true, want false")
	}
}

func TestBitSetEqualResetClone(t *testing.T) {
	a := NewBitSet(80)
	a.Set(5)
	a.Set(79)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Clear(5)
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	if a.Equal(NewBitSet(81)) {
		t.Error("different capacities compared equal")
	}
	a.Reset()
	if a.Count() != 0 {
		t.Error("Reset left elements behind")
	}
}

func TestBitSetForEachEarlyStop(t *testing.T) {
	b := NewBitSet(64)
	for i := 0; i < 10; i++ {
		b.Set(i)
	}
	visited := 0
	b.ForEach(func(i int) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Errorf("visited %d, want 3 (early stop)", visited)
	}
}

// Property: a bitset behaves exactly like a map[int]bool under a random
// sequence of Set/Clear operations.
func TestBitSetQuickAgainstMap(t *testing.T) {
	const capacity = 200
	f := func(ops []uint16) bool {
		b := NewBitSet(capacity)
		ref := map[int]bool{}
		for _, op := range ops {
			idx := int(op) % capacity
			if op&0x8000 != 0 {
				b.Set(idx)
				ref[idx] = true
			} else {
				b.Clear(idx)
				delete(ref, idx)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < capacity; i++ {
			if b.Has(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish law  |A∪B| + |A∩B| = |A| + |B|.
func TestBitSetQuickInclusionExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		a := NewBitSet(256)
		b := NewBitSet(256)
		for i := 0; i < 256; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		union := a.Clone()
		union.Or(b)
		inter := a.Clone()
		inter.And(b)
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			t.Fatalf("inclusion-exclusion violated at trial %d", trial)
		}
	}
}
