package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json lists this program's
// workloads, and its metrics with the units, directions and bounds the
// program prints and checks against.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %q, want %q", got, want)
	}
	compare := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

func TestJoinBoolValues(t *testing.T) {
	got := joinBoolValues([]string{"--workload", "warm-json", "--trace", "0", "-check", "-seed", "1", "-trace", "x"}, "trace", "check")
	want := []string{"--workload", "warm-json", "--trace=0", "-check", "-seed", "1", "-trace", "x"}
	if !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Millisecond
	}
	d := newDist(xs)
	if v, beyond, ok := d.quantile(0.99); v != 990*time.Millisecond || beyond != 10 || !ok {
		t.Errorf("p99 of 1..1000 ms = %v with %d beyond (ok %v), want 990ms with 10", v, beyond, ok)
	}
	if _, beyond, ok := newDist(xs[:999]).quantile(0.99); ok {
		t.Errorf("p99 of 999 samples reported with only %d beyond", beyond)
	}
	if m := percentile("latency_p99_ms", newDist(xs[:500]), 0.99, time.Millisecond); !m.Missing {
		t.Errorf("p99 of 500 samples printed: %+v", m)
	}
}
