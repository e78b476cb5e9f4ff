package antichain

import (
	"testing"

	"mpsched/internal/dfg"
	"mpsched/internal/workloads"
)

// benchGraphs returns the catalog workloads the enumeration benchmarks
// cover: the paper's DFTs plus the FIR, MatMul and Butterfly generators —
// the fleet shape a production compile service sees.
func benchGraphs(b *testing.B) map[string]*dfg.Graph {
	b.Helper()
	out := map[string]*dfg.Graph{
		"3dft": workloads.ThreeDFT(),
	}
	gens := map[string]func() (*dfg.Graph, error){
		"5dft":       func() (*dfg.Graph, error) { return workloads.NPointDFT(5) },
		"fir8x4":     func() (*dfg.Graph, error) { return workloads.FIRFilter(8, 4) },
		"matmul3":    func() (*dfg.Graph, error) { return workloads.MatMul(3) },
		"butterfly4": func() (*dfg.Graph, error) { return workloads.Butterfly(4) },
	}
	for name, gen := range gens {
		g, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// benchEnumerate runs the default census (sizes 1..5, span ≤ 1) on one
// graph, reporting allocations — the headline numbers for the
// zero-allocation enumeration core.
func benchEnumerate(b *testing.B, g *dfg.Graph) {
	b.Helper()
	cfg := Config{MaxSize: 5, MaxSpan: 1}
	// Warm the graph's lazy caches (levels, reachability, incomparability
	// and color sets), which a graph computes once. Each census builds its
	// own span rows, so every iteration includes that cost.
	if _, err := Enumerate(g, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		res, err := Enumerate(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = res.Total()
	}
	b.ReportMetric(float64(total), "antichains")
}

func BenchmarkEnumerate3DFT(b *testing.B)       { benchEnumerate(b, benchGraphs(b)["3dft"]) }
func BenchmarkEnumerate5DFT(b *testing.B)       { benchEnumerate(b, benchGraphs(b)["5dft"]) }
func BenchmarkEnumerateFIR8x4(b *testing.B)     { benchEnumerate(b, benchGraphs(b)["fir8x4"]) }
func BenchmarkEnumerateMatMul3(b *testing.B)    { benchEnumerate(b, benchGraphs(b)["matmul3"]) }
func BenchmarkEnumerateButterfly4(b *testing.B) { benchEnumerate(b, benchGraphs(b)["butterfly4"]) }

// The two largest census shapes of the cold compile corpus: the radix-2
// FFT kernel and the n=96, 3-color random tier. Most of their antichains
// are in the last two levels, which the census counts instead of visiting.
func BenchmarkEnumerateFFT8(b *testing.B) {
	g, err := workloads.RadixTwoFFT(8)
	if err != nil {
		b.Fatal(err)
	}
	benchEnumerate(b, g)
}

func BenchmarkEnumerateRandom96(b *testing.B) {
	g, err := workloads.RandomTiered(workloads.TierConfig{Seed: 1, N: 96, Colors: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchEnumerate(b, g)
}

// BenchmarkEnumerateParallel5DFT measures the worker-pool backend on the
// largest catalog DFT.
func BenchmarkEnumerateParallel5DFT(b *testing.B) {
	g, err := workloads.NPointDFT(5)
	if err != nil {
		b.Fatal(err)
	}
	benchEnumerateParallel(b, g, 0)
}

// BenchmarkEnumerateParallelFFT8 measures two workers on a one-word graph,
// whose census is small enough that counters two workers share a cache
// line with, or an uneven split of the roots, show in its time.
func BenchmarkEnumerateParallelFFT8(b *testing.B) {
	g, err := workloads.RadixTwoFFT(8)
	if err != nil {
		b.Fatal(err)
	}
	benchEnumerateParallel(b, g, 2)
}

// benchEnumerateParallel runs the default census on a pool of workers
// (GOMAXPROCS when 0).
func benchEnumerateParallel(b *testing.B, g *dfg.Graph, workers int) {
	b.Helper()
	cfg := Config{MaxSize: 5, MaxSpan: 1}
	if _, err := EnumerateParallel(g, cfg, workers); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateParallel(g, cfg, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountTable measures the Table 5 span sweep (sizes 1–5 × span
// limits 0–4 on the 3DFT), the paper's census table.
func BenchmarkCountTable(b *testing.B) {
	g := workloads.ThreeDFT()
	if _, err := CountTable(g, 5, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountTable(g, 5, 4); err != nil {
			b.Fatal(err)
		}
	}
}
