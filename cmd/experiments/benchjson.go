package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpsched/internal/antichain"
	"mpsched/internal/benchfmt"
	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// enumBenchSpecs are the core enumeration workloads, matching
// internal/antichain's BenchmarkEnumerate* set. Smoke mode measures the
// smoke ones: the paper's 3DFT, and fft:8 and random96, whose antichains
// are almost all in the two levels the census counts without visiting,
// over span rows of one word (63 nodes) and of two (96 nodes).
var enumBenchSpecs = []struct {
	name, spec string
	smoke      bool
}{
	{"Enumerate/3dft", "3dft", true},
	{"Enumerate/5dft", "ndft:5", false},
	{"Enumerate/fir8x4", "fir:8,4", false},
	{"Enumerate/matmul3", "matmul:3", false},
	{"Enumerate/butterfly4", "butterfly:4", false},
	{"Enumerate/fft8", "fft:8", true},
	{"Enumerate/random96", "random:seed=1,n=96,colors=3", true},
}

// runBenchJSON measures the core benchmarks via testing.Benchmark and
// writes the JSON report (the benchfmt schema) to path, echoing a summary
// line per benchmark. Smoke mode runs only the smoke census subset, the
// 3DFT kernels, the ingest kernels, the router's decode and the warm
// batch handler — enough for CI to prove the generation path still works
// and to gate them, without paying for real measurement.
func runBenchJSON(path string, smoke bool, stdout, stderr io.Writer) int {
	report := benchfmt.NewReport()

	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	cfg := antichain.Config{MaxSize: 5, MaxSpan: 1}
	// The 5DFT and fft:8 graphs and censuses are reused by the parallel
	// benchmarks below.
	var g5, g8 *dfg.Graph
	census5, census8 := 0, 0
	for _, spec := range enumBenchSpecs {
		if smoke && !spec.smoke {
			continue
		}
		g, err := cliutil.Generate(spec.spec)
		if err != nil {
			return fail(err)
		}
		census, err := antichain.Enumerate(g, cfg) // warm lazy graph caches
		if err != nil {
			return fail(err)
		}
		switch spec.spec {
		case "ndft:5":
			g5, census5 = g, census.Total()
		case "fft:8":
			g8, census8 = g, census.Total()
		}
		r, err := measure(func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				if _, err := antichain.Enumerate(g, cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
		report.Results = append(report.Results, toResult(spec.name, r, census.Total()))
	}

	// Parallel backend (skipped in smoke mode): a GOMAXPROCS pool on the
	// largest catalog DFT, and two workers on fft:8, a one-word graph whose
	// time shows counters the workers share a cache line with.
	if !smoke {
		for _, par := range []struct {
			name       string
			g          *dfg.Graph
			workers    int
			antichains int
		}{
			{"EnumerateParallel/5dft", g5, 0, census5},
			{"EnumerateParallel/fft8", g8, 2, census8},
		} {
			r, err := measure(func(b *testing.B) error {
				for i := 0; i < b.N; i++ {
					if _, err := antichain.EnumerateParallel(par.g, cfg, par.workers); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fail(err)
			}
			report.Results = append(report.Results, toResult(par.name, r, par.antichains))
		}
	}

	// Graph ingest on the warm serving path: fingerprint and binary decode,
	// means per graph over the hot set, and one design-space batch envelope
	// decode (run in smoke mode too — each is at most a few hundred
	// microseconds).
	ingest, err := ingestResults()
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, ingest...)

	// The router's read of a repeated JSON graph (run in smoke mode too:
	// tens of microseconds a request).
	route, err := routeResult()
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, route)

	// The warm batch handler (run in smoke mode too: about a millisecond
	// an envelope).
	serve, err := serveResult()
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, serve)

	// CountTable: the paper's Table 5 span sweep, now single-pass.
	g3, err := cliutil.Generate("3dft")
	if err != nil {
		return fail(err)
	}
	r, err := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := antichain.CountTable(g3, 5, 4); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, toResult("CountTable/3dft", r, 0))

	// Staged compiler: the full census → select → schedule flow through
	// the Compiler API, cache bypassed so every iteration compiles.
	comp := pipeline.NewCompiler(pipeline.Options{})
	spec := pipeline.NewSpec(g3, pipeline.WithSelect(patsel.Config{Pdef: 4}), pipeline.WithoutCache())
	r, err = measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := comp.Compile(context.Background(), spec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, toResult("Compiler/3dft", r, 0))

	// Pipeline throughput: the mixed batch, cold cache and warm cache.
	jobs, err := benchFleet()
	if err != nil {
		return fail(err)
	}
	if smoke {
		jobs = jobs[:4] // a taste of the batch path, not a measurement
	}
	cold, err := measure(func(b *testing.B) error {
		c := pipeline.NewCompiler(pipeline.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runBatch(c, jobs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, throughputResult("PipelineBatch/cold", cold, len(jobs)))

	warm, err := measure(func(b *testing.B) error {
		c := pipeline.NewCompiler(pipeline.Options{Cache: pipeline.NewShardedCache(0, 1)})
		if err := runBatch(c, jobs); err != nil { // fill the cache outside the timer
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runBatch(c, jobs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	report.Results = append(report.Results, throughputResult("PipelineBatch/warm", warm, len(jobs)))

	if err := report.WriteFile(path); err != nil {
		return fail(err)
	}
	for _, res := range report.Results {
		line := fmt.Sprintf("%-26s %12.0f ns/op %10d allocs/op", res.Name, res.NsPerOp, res.AllocsPerOp)
		if res.JobsPerSec > 0 {
			line += fmt.Sprintf(" %10.0f jobs/s", res.JobsPerSec)
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", path, len(report.Results))
	return 0
}

// measure wraps testing.Benchmark and surfaces failures: a b.Fatal inside
// the benchmark body only aborts the measurement goroutine, returning a
// zeroed result the caller would otherwise serialise as a bogus 0 ns/op
// entry with exit code 0. Bodies report errors instead of calling b.Fatal;
// an empty result (no iterations) is also an error.
func measure(fn func(b *testing.B) error) (testing.BenchmarkResult, error) {
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if err := fn(b); err != nil {
			benchErr = err
			b.Fatal(err)
		}
	})
	if benchErr != nil {
		return r, benchErr
	}
	if r.N == 0 {
		return r, fmt.Errorf("benchmark ran zero iterations")
	}
	return r, nil
}

func toResult(name string, r testing.BenchmarkResult, antichains int) benchfmt.Result {
	return benchfmt.Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Antichains:  antichains,
	}
}

func throughputResult(name string, r testing.BenchmarkResult, batch int) benchfmt.Result {
	out := toResult(name, r, 0)
	if r.T > 0 {
		out.JobsPerSec = float64(r.N*batch) / r.T.Seconds()
	}
	return out
}

// ingestResults measures Ingest/fingerprint and Ingest/unmarshal-binary:
// the mean cost per graph of hashing and of decoding (with validation) the
// 32-graph hot set, iteration i taking graph i mod 32, as internal/dfg's
// BenchmarkFingerprint and BenchmarkUnmarshalBinary do. Ingest/decode-batch64
// is the cost of decoding one binary /v1/batch envelope of the design-space
// shape: the first 8 hot-set graphs, each at select.pdef 1 to 8. The codec
// decodes each distinct graph of an envelope once; decoding every job's
// graph instead takes about 5 times as long and 6 times the allocations,
// past the CI gate's 3x tolerance.
func ingestResults() ([]benchfmt.Result, error) {
	hot, err := hotSet()
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	for _, g := range hot {
		frames = append(frames, g.AppendBinary(nil))
	}
	fp, err := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			g := hot[i%len(hot)]
			g.SetOutput(0, g.Node(0).Output) // drops the cached hash, content unchanged
			g.Fingerprint()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dec, err := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			var g dfg.Graph
			if err := g.UnmarshalBinary(frames[i%len(frames)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var env bytes.Buffer
	var jobs []wire.CompileRequest
	for pdef := 1; pdef <= 8; pdef++ {
		for _, g := range hot[:8] {
			jobs = append(jobs, wire.CompileRequest{Graph: g, Select: &wire.SelectConfig{Pdef: pdef}})
		}
	}
	if err := wire.Binary.EncodeBatch(&env, &wire.BatchRequest{Jobs: jobs}); err != nil {
		return nil, err
	}
	batch, err := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			var got wire.BatchRequest
			if err := wire.Binary.DecodeBatch(bytes.NewReader(env.Bytes()), &got); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []benchfmt.Result{toResult("Ingest/fingerprint", fp, 0), toResult("Ingest/unmarshal-binary", dec, 0),
		toResult("Ingest/decode-batch64", batch, 0)}, nil
}

// routeResult measures Route/decode-json: wire.ReadRequest, as the
// router calls it, on a JSON /v1/compile body carrying the first seed-1
// hot-set graph (3dft, 2,110 B of dfg JSON), through a graph store that
// already holds that graph — mixed-fleet's hot-set requests at the
// router. What remains is the JSON codec's scan of the envelope, which
// checks the dfg text without copying it, and one store lookup. Reading
// the envelope through encoding/json instead takes 6 times the
// allocations and 39 times the bytes, and a nil store, which decodes the
// graph on every request, 12 times the allocations and over 5 times the
// time: each past the CI gate's 3x tolerance.
func routeResult() (benchfmt.Result, error) {
	hot, err := hotSet()
	if err != nil {
		return benchfmt.Result{}, err
	}
	var body bytes.Buffer
	if err := wire.JSON.EncodeRequest(&body, &wire.CompileRequest{Graph: hot[0]}); err != nil {
		return benchfmt.Result{}, err
	}
	gs := wire.NewGraphStore()
	r := httptest.NewRequest(http.MethodPost, "/v1/compile", nil)
	w := httptest.NewRecorder()
	var rd bytes.Reader
	read := func() error {
		rd.Reset(body.Bytes())
		r.Body = io.NopCloser(&rd)
		if req, ok := wire.ReadRequest(w, r, server.DefaultMaxBodyBytes, gs, func(string) {}); !ok || req.Graph == nil {
			return fmt.Errorf("Route/decode-json: the request did not decode: %d %s", w.Code, w.Body)
		}
		return nil
	}
	if err := read(); err != nil { // store the graph
		return benchfmt.Result{}, err
	}
	res, err := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if err := read(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return benchfmt.Result{}, err
	}
	return toResult("Route/decode-json", res, 0), nil
}

// serveResult measures Serve/batch64-inline: the daemon's /v1/batch
// handler answering one binary envelope of 64 jobs drawn at random from
// the seed-1 hot set, every graph inline and every job a cache hit — the
// warm-batch workload's server side without the network or the client,
// as internal/server's BenchmarkBatchBinary64Inline measures it. Its
// bytes per envelope are what the warm path leaves the collector.
func serveResult() (benchfmt.Result, error) {
	s := server.New(server.Options{})
	defer s.Drain(context.Background())

	hot, err := hotSet()
	if err != nil {
		return benchfmt.Result{}, err
	}
	encode := func(gs []*dfg.Graph) ([]byte, error) {
		var env wire.BatchRequest
		for _, g := range gs {
			env.Jobs = append(env.Jobs, wire.CompileRequest{Graph: g})
		}
		var buf bytes.Buffer
		err := wire.Binary.EncodeBatch(&buf, &env)
		return buf.Bytes(), err
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]*dfg.Graph, 64)
	for i := range jobs {
		jobs[i] = hot[rng.Intn(len(hot))]
	}
	warm, err := encode(hot)
	if err != nil {
		return benchfmt.Result{}, err
	}
	raw, err := encode(jobs)
	if err != nil {
		return benchfmt.Result{}, err
	}
	post := func(body []byte) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("Serve/batch64-inline: /v1/batch answered %d", rec.Code)
		}
		return nil
	}
	// Compile the hot set, then post it again so the response memo holds
	// every result, as on a warmed daemon.
	for i := 0; i < 2; i++ {
		if err := post(warm); err != nil {
			return benchfmt.Result{}, err
		}
	}
	r, err := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if err := post(raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return benchfmt.Result{}, err
	}
	return toResult("Serve/batch64-inline", r, 0), nil
}

// hotSet generates the seed-1 hot set of the warm workloads.
func hotSet() ([]*dfg.Graph, error) {
	var hot []*dfg.Graph
	for _, spec := range cliutil.HotSetSpecs(1) {
		g, err := cliutil.Generate(spec)
		if err != nil {
			return nil, err
		}
		hot = append(hot, g)
	}
	return hot, nil
}

// benchFleet is the 16-job mixed batch the top-level pipeline benchmarks
// compile (DFTs, FIR, MatMul, butterflies × two Pdef values).
func benchFleet() ([]pipeline.Spec, error) {
	specs := []string{"3dft", "ndft:4", "ndft:5", "fir:8,4", "fir:12,2", "matmul:3", "butterfly:3", "butterfly:4"}
	var jobs []pipeline.Spec
	for _, pdef := range []int{3, 4} {
		for _, spec := range specs {
			g, err := cliutil.Generate(spec)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, pipeline.Spec{
				Name:   fmt.Sprintf("%s/pdef%d", spec, pdef),
				Graph:  g,
				Select: patsel.Config{Pdef: pdef},
			})
		}
	}
	return jobs, nil
}

// runBatch compiles the batch on a GOMAXPROCS worker pool.
func runBatch(c *pipeline.Compiler, jobs []pipeline.Spec) error {
	_, errs := c.CompileAll(context.Background(), jobs, 0)
	return errors.Join(errs...)
}
