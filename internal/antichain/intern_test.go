package antichain

import (
	"math/rand"
	"testing"

	"mpsched/internal/dfg"
	"mpsched/internal/pattern"
	"mpsched/internal/workloads"
)

// The color ids the walk interns patterns with must follow ascending color
// order, and each color mask must hold exactly that color's nodes.
func TestColorIndexCanonicalOrder(t *testing.T) {
	g := workloads.ThreeDFT()
	cc := g.ColorClasses()
	for i := 1; i < len(cc.Colors); i++ {
		if cc.Colors[i-1] >= cc.Colors[i] {
			t.Fatalf("colors %v not strictly ascending", cc.Colors)
		}
	}
	for id := 0; id < g.N(); id++ {
		if cc.Colors[cc.Of[id]] != g.ColorOf(id) {
			t.Fatalf("node %d: color id %d resolves to %q, want %q",
				id, cc.Of[id], cc.Colors[cc.Of[id]], g.ColorOf(id))
		}
		for cid, m := range cc.Masks {
			if m.Has(id) != (int32(cid) == cc.Of[id]) {
				t.Fatalf("node %d: mask of color %q disagrees with its color %q", id, cc.Colors[cid], g.ColorOf(id))
			}
		}
	}
}

// The table must identify a multiset regardless of insertion order: every
// permutation of the same color sequence lands on one id.
func TestPatternTableOrderInsensitive(t *testing.T) {
	tb := newPatternTable(3)
	walk := func(colors ...int32) int32 {
		id := int32(0)
		for _, c := range colors {
			id = tb.child(id, c)
		}
		return id
	}
	ab := walk(0, 1)
	ba := walk(1, 0)
	if ab != ba {
		t.Fatalf("{a,b} interned as %d via a→b but %d via b→a", ab, ba)
	}
	if x, y := walk(2, 0, 1), walk(1, 2, 0); x != y || x == ab {
		t.Fatalf("{a,b,c} ids %d vs %d (and must differ from {a,b}=%d)", x, y, ab)
	}
	// intern() of the count vector agrees with the walk.
	if got := tb.intern([]int32{1, 1, 0}); got != ab {
		t.Fatalf("intern({1,1,0}) = %d, want %d", got, ab)
	}
	if got := tb.intern([]int32{0, 0, 0}); got != 0 {
		t.Fatalf("intern(empty) = %d, want 0", got)
	}
}

func TestPatternTableMaterialisesCanonicalPatterns(t *testing.T) {
	colors := []dfg.Color{"add", "mul", "sub"}
	tb := newPatternTable(3)
	id := tb.intern([]int32{2, 1, 0})
	p := tb.pattern(id, colors)
	if !p.Equal(pattern.MustParse("add,add,mul")) {
		t.Fatalf("pattern(%d) = %s", id, p)
	}
	if tb.size[id] != 3 {
		t.Fatalf("size = %d", tb.size[id])
	}
}

// Random multisets: the number of distinct ids must equal the number of
// distinct canonical keys, and every id round-trips through its pattern.
func TestPatternTableRandomMultisets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	colors := []dfg.Color{"a", "b", "c", "d"}
	tb := newPatternTable(len(colors))
	byKey := map[string]int32{}
	for trial := 0; trial < 500; trial++ {
		id := int32(0)
		n := 1 + rng.Intn(5)
		counts := make([]int32, len(colors))
		for i := 0; i < n; i++ {
			c := int32(rng.Intn(len(colors)))
			counts[c]++
			id = tb.child(id, c)
		}
		key := tb.pattern(id, colors).Key()
		if prev, ok := byKey[key]; ok && prev != id {
			t.Fatalf("key %q maps to ids %d and %d", key, prev, id)
		}
		byKey[key] = id
		if got := tb.intern(counts); got != id {
			t.Fatalf("intern(%v) = %d, want %d", counts, got, id)
		}
	}
	// Every table entry (finals and interned prefixes alike) must carry a
	// distinct canonical key — ids and multisets are in bijection.
	allKeys := map[string]bool{}
	for id := 0; id < tb.len(); id++ {
		key := tb.pattern(int32(id), colors).Key()
		if allKeys[key] {
			t.Fatalf("duplicate table entry for multiset %q", key)
		}
		allKeys[key] = true
	}
}
