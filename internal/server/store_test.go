package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
)

// TestWarmRestartServesFromDisk is the serving-layer warm-restart story:
// a server backed by a persistent tiered store is stopped and a new one
// opened over the same directory serves the same compile as a cache hit,
// with identical results.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	open := func() (pipeline.ResultCache, *server.Server, *httptest.Server) {
		cache, err := pipeline.NewTieredCache(0, 0, dir, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Options{Cache: cache})
		return cache, s, httptest.NewServer(s)
	}
	shutdown := func(cache pipeline.ResultCache, s *server.Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		if err := cache.Close(); err != nil {
			t.Fatalf("close store: %v", err)
		}
	}

	cache1, s1, ts1 := open()
	c1 := client.New(ts1.URL)
	cold, err := c1.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("cold compile reported a cache hit")
	}
	shutdown(cache1, s1, ts1)

	cache2, s2, ts2 := open()
	defer shutdown(cache2, s2, ts2)
	c2 := client.New(ts2.URL)
	warm, err := c2.Compile(context.Background(), server.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("compile after restart missed the persisted store")
	}
	if warm.Cycles != cold.Cycles || warm.Utilization != cold.Utilization {
		t.Fatalf("warm result differs: cycles %d vs %d", warm.Cycles, cold.Cycles)
	}

	// The tiered store exposes per-tier families on /metrics.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`mpschedd_store_hits_total{tier="memory"}`,
		`mpschedd_store_hits_total{tier="disk"}`,
		`mpschedd_store_entries{tier="disk"}`,
		`mpschedd_store_bytes{tier="disk"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
