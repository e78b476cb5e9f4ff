package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/pipeline"
)

// TestAdmissionControl fills a queue nothing drains (no workers) and
// checks the overflow submit is refused with 429 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	s := newServer(Options{QueueDepth: 2}, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	submit := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"3dft"}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := submit(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	over := submit()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if s.metrics.jobsRejected.Load() != 1 {
		t.Errorf("jobsRejected = %d, want 1", s.metrics.jobsRejected.Load())
	}
}

// TestJobStoreEviction checks terminal jobs are evicted once the cap is
// exceeded while live jobs survive.
func TestJobStoreEviction(t *testing.T) {
	st := newJobStore(2)
	mk := func(id, status string) *asyncJob {
		return &asyncJob{id: id, status: status}
	}
	st.add(mk("a", JobDone))
	st.add(mk("b", JobQueued))
	st.add(mk("c", JobDone))
	if _, ok := st.get("a"); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := st.get("b"); !ok {
		t.Error("live job evicted")
	}
	if _, ok := st.get("c"); !ok {
		t.Error("newest job evicted")
	}
}

// TestResponseMemoSharedByHits: result-cache hits each get their own
// schedule copy, yet two hits of one cached result share one memo entry
// and return responses aliasing the same skeleton slices. Misses — here
// the compile that fills the cache, and every compile of a server with
// the cache off — leave the memo alone.
func TestResponseMemoSharedByHits(t *testing.T) {
	ctx := context.Background()
	compile := func(s *Server) (*CompileResponse, *pipeline.Report) {
		t.Helper()
		// A fresh graph per request, as inline graphs arrive.
		g, err := cliutil.Generate("3dft")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := toSpec(CompileRequest{Graph: g}, s.workloads)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.compileJob(ctx, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		return s.toResponse(rep, spec.StopAfter), rep
	}
	memoLen := func(s *Server) int {
		s.resps.mu.RLock()
		defer s.resps.mu.RUnlock()
		return len(s.resps.m)
	}

	s := newServer(Options{}, false)
	if _, miss := compile(s); miss.CacheHit || memoLen(s) != 0 {
		t.Fatalf("first compile: hit=%v, memo holds %d entries, want a miss and 0", miss.CacheHit, memoLen(s))
	}
	a, hitA := compile(s)
	b, hitB := compile(s)
	if !hitA.CacheHit || !hitB.CacheHit {
		t.Fatalf("repeat compiles were not cache hits")
	}
	if hitA.Schedule == hitB.Schedule {
		t.Fatalf("hits share a schedule pointer; the memo test needs distinct copies")
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d entries after two hits of one result, want 1", n)
	}
	if &a.CycleOf[0] != &b.CycleOf[0] || &a.PatternOf[0] != &b.PatternOf[0] ||
		&a.Patterns[0] != &b.Patterns[0] || &a.SchedulerPatterns[0] != &b.SchedulerPatterns[0] {
		t.Fatal("hit responses do not alias the memoised skeleton slices")
	}
	if a.Cycles != 7 || a.LowerBound != b.LowerBound || a.Utilization != b.Utilization {
		t.Fatalf("hit responses differ: cycles %d/%d, lower bound %d/%d", a.Cycles, b.Cycles, a.LowerBound, b.LowerBound)
	}

	off := newServer(Options{CacheEntries: -1}, false)
	for i := 0; i < 2; i++ {
		if resp, _ := compile(off); resp.Cycles != 7 {
			t.Fatalf("cache off: cycles %d, want 7", resp.Cycles)
		}
	}
	if n := memoLen(off); n != 0 {
		t.Fatalf("cache off: memo holds %d entries, want 0", n)
	}
}

// TestSpecCacheSharesGraphs: a repeated workload spec resolves to the
// same *dfg.Graph, and spec churn stays within the store's bound of 512
// entries.
func TestSpecCacheSharesGraphs(t *testing.T) {
	s := newServer(Options{}, false)
	defer s.Drain(context.Background())
	resolve := func(workload string) *dfg.Graph {
		t.Helper()
		spec, err := toSpec(CompileRequest{Workload: workload}, s.workloads)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Graph
	}
	if resolve("3dft") != resolve("3dft") {
		t.Fatal("a repeated workload spec generated a second graph")
	}
	if st := s.workloads.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after one spec twice: %+v, want one miss, one hit and one entry", st)
	}
	for i := 0; i < 600; i++ {
		resolve(fmt.Sprintf("random:seed=%d,n=8", i))
	}
	if n := s.workloads.Stats().Entries; n > 512 {
		t.Fatalf("%d specs resident after 600 distinct ones, bound 512", n)
	}
}
