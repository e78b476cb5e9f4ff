package antichain

import (
	"testing"

	"mpsched/internal/workloads"
)

// Allocation-regression budgets for the enumeration hot path. The
// zero-allocation core allocates per distinct pattern CLASS (a few dozen
// per graph: class structs, table rows, the final keyed map), never per
// ANTICHAIN. The budgets below are ~2× the measured steady state, so a
// regression that reintroduces per-antichain work — a pattern value, a
// string key, a bitset clone — trips them by orders of magnitude long
// before it reaches the old cost (the pre-interning core spent ~22,800
// allocs on the 3DFT census below, ~6 per antichain).
//
// Measured steady state (go1.24, linux/amd64), with the graph's color
// masks cached beside its incomparability sets. Each walk builds its span
// rows once, and the census counts its last two levels from scratch
// slices allocated once per walk:
//
//	Enumerate 3DFT  (3,430 antichains, 54 classes)  ≈ 692 allocs
//	Enumerate fig4  (8 antichains, 4 classes)       ≈ 78 allocs
//	ForEach 3DFT    (streaming, no census)          ≈ 9 allocs
//	CountTable 3DFT (5 sizes × 5 span limits)       ≈ 17 allocs
//	patternTable.child, warm transition             = 0 allocs
const (
	enumerate3DFTAllocBudget = 1400
	enumerateFig4AllocBudget = 130
	forEachAllocBudget       = 25
	countTableAllocBudget    = 50
)

func TestEnumerateAllocBudget(t *testing.T) {
	g3 := workloads.ThreeDFT()
	g4 := workloads.Fig4Small()
	cfg := Config{MaxSize: 5, MaxSpan: 1}
	// Warm the graphs' lazy caches (levels, reachability, incomparability)
	// so the measurement isolates enumeration itself.
	if _, err := Enumerate(g3, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate(g4, cfg); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := Enumerate(g3, cfg); err != nil {
			t.Fatal(err)
		}
	}); avg > enumerate3DFTAllocBudget {
		t.Errorf("Enumerate(3DFT) allocates %.0f/op, budget %d", avg, enumerate3DFTAllocBudget)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := Enumerate(g4, cfg); err != nil {
			t.Fatal(err)
		}
	}); avg > enumerateFig4AllocBudget {
		t.Errorf("Enumerate(fig4) allocates %.0f/op, budget %d", avg, enumerateFig4AllocBudget)
	}
}

// The streaming walk must not allocate per antichain: its whole cost is
// the enumerator scaffolding (candidate stack, current slice).
func TestForEachAllocBudget(t *testing.T) {
	g := workloads.ThreeDFT()
	cfg := Config{MaxSize: 5, MaxSpan: 1}
	if _, err := Enumerate(g, cfg); err != nil {
		t.Fatal(err)
	}
	count := 0
	fn := func(nodes []int) bool { count++; return true }
	if avg := testing.AllocsPerRun(10, func() {
		if err := ForEach(g, cfg, fn); err != nil {
			t.Fatal(err)
		}
	}); avg > forEachAllocBudget {
		t.Errorf("ForEach(3DFT) allocates %.0f/op over 3,430 antichains, budget %d", avg, forEachAllocBudget)
	}
	if count == 0 {
		t.Fatal("walk did not run")
	}
}

func TestCountTableAllocBudget(t *testing.T) {
	g := workloads.ThreeDFT()
	if _, err := CountTable(g, 5, 4); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := CountTable(g, 5, 4); err != nil {
			t.Fatal(err)
		}
	}); avg > countTableAllocBudget {
		t.Errorf("CountTable(3DFT) allocates %.0f/op, budget %d", avg, countTableAllocBudget)
	}
}

// A warm pattern-table transition — the per-antichain interning step — is
// a pair of slice lookups and must be allocation-free.
func TestPatternTableChildZeroAlloc(t *testing.T) {
	tb := newPatternTable(4)
	// Warm every transition the loop below takes.
	id := int32(0)
	for _, c := range []int32{0, 1, 2, 3, 0} {
		id = tb.child(id, c)
	}
	if avg := testing.AllocsPerRun(100, func() {
		id := int32(0)
		for _, c := range []int32{0, 1, 2, 3, 0} {
			id = tb.child(id, c)
		}
		if id == 0 {
			t.Fatal("walk collapsed")
		}
	}); avg != 0 {
		t.Errorf("warm child() transitions allocate %.1f/op, want 0", avg)
	}
}
