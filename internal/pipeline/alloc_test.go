package pipeline

import (
	"context"
	"testing"

	"mpsched/internal/patsel"
	"mpsched/internal/workloads"
)

// Allocation-regression budget for the cold compile path (cache off):
// enumeration + selection + scheduling + verification of the 3DFT at the
// paper's operating point. With the interned antichain core, enumeration
// contributes per-class allocations only (~690 for this census), and the
// whole cold compile measures ≈ 1,300 allocs (go1.24, linux/amd64); the
// pre-interning core spent ~23,500 on the same job. The budget is ~2× the
// steady state so a reintroduced per-antichain allocation — ~3,430
// antichains here — trips it immediately.
const coldCompileAllocBudget = 2800

func TestPipelineColdCompileAllocBudget(t *testing.T) {
	c := NewCompiler(Options{}) // no cache: every Compile is a cold compile
	spec := Spec{Name: "3dft", Graph: workloads.ThreeDFT(), Select: patsel.Config{Pdef: 4}}
	// Warm the graph's lazy analysis caches; the budget covers the
	// per-compile cost under daemon traffic, where graphs repeat.
	if _, err := c.Compile(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := c.Compile(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	if avg > coldCompileAllocBudget {
		t.Errorf("cold compile allocates %.0f/op, budget %d", avg, coldCompileAllocBudget)
	}
}
