package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// BenchmarkBatchBinary64 measures the full /v1/batch handler path for a
// 64-job binary envelope against a hot cache — the storm shape the
// serving perf gate runs, minus the network and the client. It is the
// reference measurement for the tracing/metrics overhead budget on the
// batched path.
func BenchmarkBatchBinary64(b *testing.B) {
	s := server.New(server.Options{})
	defer s.Drain(context.Background())

	// 64 identical jobs mirror the CI storm shape (its scenario has one
	// member), and every job is a cache hit after the warm-up below.
	var env wire.BatchRequest
	for i := 0; i < 64; i++ {
		env.Jobs = append(env.Jobs, server.CompileRequest{Workload: "fft:8"})
	}
	var buf bytes.Buffer
	if err := wire.Binary.EncodeBatch(&buf, &env); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code
	}
	// First envelope warms the result cache so iterations measure the
	// serving overhead, not the initial compiles.
	if code := do(); code != http.StatusOK {
		b.Fatalf("warm-up status %d", code)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// BenchmarkBatchBinary64Inline is BenchmarkBatchBinary64 with the graphs
// inline: 64 jobs drawn at random from the 32-graph hot set of the warm
// workloads, each carrying its graph in the binary frame, against a hot
// result cache. Workload specs hit the server's spec cache and never
// reach graph ingest; inline graphs are decoded, validated and
// fingerprinted once per distinct graph of the envelope (the 64 draws
// repeat some), as in the warm-batch benchmark workload.
func BenchmarkBatchBinary64Inline(b *testing.B) {
	post := inlineEnvelope(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// Budgets for one envelope of BenchmarkBatchBinary64Inline. Measured
// (go1.24, linux/amd64, 2 CPUs): about 400 KB in 825 allocations; a
// handler that reads bodies with io.ReadAll, hashes through a buffer the
// size of each graph's stream, builds a name map per decoded graph and
// grows its job list by append takes 776 KB in 1,203.
const (
	inlineEnvelopeByteBudget  = 450 << 10
	inlineEnvelopeAllocBudget = 1000
)

// TestBatchInlineEnvelopeBudget holds the /v1/batch handler to its
// allocation budgets on the envelope BenchmarkBatchBinary64Inline posts.
// The race detector's sync.Pool drops some of what is put back, so pooled
// buffers are allocated again now and then, and its runs are not held to
// the byte budget.
func TestBatchInlineEnvelopeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets measured in full runs")
	}
	post := inlineEnvelope(t)
	const envelopes = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < envelopes; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	allocated := (after.TotalAlloc - before.TotalAlloc) / envelopes
	allocs := (after.Mallocs - before.Mallocs) / envelopes
	if allocated > inlineEnvelopeByteBudget && !raceEnabled {
		t.Errorf("an envelope allocates %d KB, budget %d KB", allocated>>10, inlineEnvelopeByteBudget>>10)
	}
	if allocs > inlineEnvelopeAllocBudget {
		t.Errorf("an envelope allocates %d times, budget %d", allocs, inlineEnvelopeAllocBudget)
	}
	t.Logf("an envelope allocates %d KB in %d allocations", allocated>>10, allocs)
}

// inlineEnvelope starts a server whose result cache and response memo
// hold the seed-1 hot set, and returns a func that posts it the 64-job
// inline envelope of BenchmarkBatchBinary64Inline.
func inlineEnvelope(tb testing.TB) (post func()) {
	s := server.New(server.Options{})
	tb.Cleanup(func() { s.Drain(context.Background()) })

	var hot []*dfg.Graph
	for _, spec := range cliutil.HotSetSpecs(1) {
		g, err := cliutil.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		hot = append(hot, g)
	}
	encode := func(gs []*dfg.Graph) []byte {
		var env wire.BatchRequest
		for _, g := range gs {
			env.Jobs = append(env.Jobs, server.CompileRequest{Graph: g})
		}
		var buf bytes.Buffer
		if err := wire.Binary.EncodeBatch(&buf, &env); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]*dfg.Graph, 64)
	for i := range jobs {
		jobs[i] = hot[rng.Intn(len(hot))]
	}
	warm, raw := encode(hot), encode(jobs)

	do := func(body []byte) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code
	}
	// Compile the whole hot set once, then once more so the response memo
	// holds every result, as it does on a warmed daemon.
	for i := 0; i < 2; i++ {
		if code := do(warm); code != http.StatusOK {
			tb.Fatalf("warm-up status %d", code)
		}
	}
	return func() { do(raw) }
}
