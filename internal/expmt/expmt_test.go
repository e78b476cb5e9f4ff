package expmt

import (
	"strconv"
	"strings"
	"testing"
)

func mustRun(t *testing.T, f func() (*Report, error)) *Report {
	t.Helper()
	r, err := f()
	if err != nil {
		t.Fatal(err)
	}
	if r.Body == "" {
		t.Fatalf("%s: empty body", r.ID)
	}
	return r
}

func TestTable1FullMatch(t *testing.T) {
	r := mustRun(t, Table1)
	match, total := r.Matched()
	if match != total || total != 22 {
		t.Errorf("table1: %d/%d cells match\n%s", match, total, r.Render())
	}
}

func TestTable2FullMatch(t *testing.T) {
	r := mustRun(t, Table2)
	match, total := r.Matched()
	if match != total {
		t.Errorf("table2: %d/%d cells match\n%s", match, total, r.Render())
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	r := mustRun(t, Table3)
	// Set 1 must match exactly; sets 2 and 3 are documented ±1 deviations.
	if !r.Comparisons[0].Match() {
		t.Errorf("set 1 diverged: %+v", r.Comparisons[0])
	}
	for _, c := range r.Comparisons {
		if c.Measured == "" {
			t.Errorf("missing measurement for %s", c.Label)
		}
	}
}

func TestTable4FullMatch(t *testing.T) {
	r := mustRun(t, Table4)
	match, total := r.Matched()
	if match != total || total != 4 {
		t.Errorf("table4: %d/%d\n%s", match, total, r.Render())
	}
}

func TestTable5FullMatch(t *testing.T) {
	r := mustRun(t, Table5)
	match, total := r.Matched()
	if match != total || total != 25 {
		t.Errorf("table5: %d/%d cells match\n%s", match, total, r.Render())
	}
}

func TestTable6FullMatch(t *testing.T) {
	r := mustRun(t, Table6)
	match, total := r.Matched()
	if match != total {
		t.Errorf("table6: %d/%d cells match\n%s", match, total, r.Render())
	}
}

func TestTable7SelectedMatches3DFT(t *testing.T) {
	r := mustRun(t, Table7)
	// The 3DFT Selected column must reproduce exactly: 8,7,7,7,6.
	for _, c := range r.Comparisons {
		if strings.HasPrefix(c.Label, "3dft") && strings.HasSuffix(c.Label, "selected") {
			if !c.Match() {
				t.Errorf("3DFT selected diverged: %+v", c)
			}
		}
	}
	// Shape: selected ≤ ceil(random) for every row, both graphs.
	sel := map[string]float64{}
	rnd := map[string]float64{}
	for _, c := range r.Comparisons {
		key := strings.TrimSuffix(strings.TrimSuffix(c.Label, " selected"), " random")
		v, err := strconv.ParseFloat(c.Measured, 64)
		if err != nil {
			t.Fatalf("unparseable measurement %q", c.Measured)
		}
		if strings.HasSuffix(c.Label, "selected") {
			sel[key] = v
		} else {
			rnd[key] = v
		}
	}
	for key, s := range sel {
		if r, ok := rnd[key]; ok && s > r+0.5 {
			t.Errorf("%s: selected %v worse than random mean %v", key, s, r)
		}
	}
}

func TestAllRuns(t *testing.T) {
	reports, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(IDs()))
	}
	for _, r := range reports {
		if out := r.Render(); !strings.Contains(out, r.ID) {
			t.Errorf("render of %s missing id", r.ID)
		}
	}
}

func TestByID(t *testing.T) {
	r, err := ByID("table5")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table5" {
		t.Errorf("ByID returned %s", r.ID)
	}
	if _, err := ByID("table99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTheorem1NoViolations(t *testing.T) {
	r := mustRun(t, Theorem1)
	if m, total := r.Matched(); m != total {
		t.Errorf("theorem1 reported violations:\n%s", r.Render())
	}
}

func TestFigReports(t *testing.T) {
	f2 := mustRun(t, Fig2)
	if m, total := f2.Matched(); m != total {
		t.Errorf("fig2: %d/%d\n%s", m, total, f2.Render())
	}
	if !strings.Contains(f2.Body, "digraph") {
		t.Error("fig2 missing DOT output")
	}
	f4 := mustRun(t, Fig4)
	if m, total := f4.Matched(); m != total {
		t.Errorf("fig4: %d/%d\n%s", m, total, f4.Render())
	}
}

// TestRenderDeterministic: every report renders the same text on every
// run, so EXPERIMENTS.md regenerates byte for byte.
func TestRenderDeterministic(t *testing.T) {
	render := func() string {
		reports, err := All()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reports {
			sb.WriteString(r.Render())
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d rendered different text than run 0", i+1)
		}
	}
}

// TestMatchedCountsHold pins each report's paper-vs-measured count to the
// reproduction recorded in EXPERIMENTS.md: no report may match fewer
// cells, and none may silently drop or add a cell. A change that makes
// more cells match raises the floor here and regenerates EXPERIMENTS.md.
func TestMatchedCountsHold(t *testing.T) {
	want := map[string][2]int{ // id → {matched, total}
		"table1": {22, 22}, "table2": {15, 15}, "table3": {1, 3}, "table4": {4, 4},
		"table5": {25, 25}, "table6": {29, 29}, "table7": {7, 20}, "fig2": {5, 5},
		"fig4": {2, 2}, "theorem1": {1, 1}, "extras": {1, 1},
	}
	reports, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(reports), len(want))
	}
	for _, r := range reports {
		match, total := r.Matched()
		w, ok := want[r.ID]
		switch {
		case !ok:
			t.Errorf("%s: no recorded count", r.ID)
		case total != w[1]:
			t.Errorf("%s: %d cells, want %d", r.ID, total, w[1])
		case match < w[0]:
			t.Errorf("%s: %d/%d cells match, below the recorded %d\n%s", r.ID, match, total, w[0], r.Render())
		}
	}
}
