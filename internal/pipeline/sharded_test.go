package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mpsched/internal/patsel"
	"mpsched/internal/workloads"
)

func selectCfg(pdef int) patsel.Config { return patsel.Config{Pdef: pdef} }

// fakeKey builds keys shaped like real cache keys: a long hex-ish prefix
// (standing in for the graph fingerprint) followed by config text. Distinct
// i values get distinct prefixes so routing spreads them across shards.
func fakeKey(i int) string {
	return fmt.Sprintf("%016x%048x|{C:5 Pdef:4}|{}|-", i*2654435761, i)
}

func TestShardedCacheBasics(t *testing.T) {
	c := NewShardedCache(128, 8)
	if c.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", c.Shards())
	}
	if _, ok := c.Get(fakeKey(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(fakeKey(1), &cacheEntry{})
	if _, ok := c.Get(fakeKey(1)); !ok {
		t.Fatal("miss after put")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	c.Reset()
	if c.Len() != 0 || c.Stats().Hits != 0 {
		t.Fatalf("Reset left state: len=%d stats=%+v", c.Len(), c.Stats())
	}
}

func TestShardedCacheDefaults(t *testing.T) {
	c := NewShardedCache(0, 0)
	if c.Shards() < 8 {
		t.Fatalf("default shards = %d, want ≥ 8", c.Shards())
	}
	// Degenerate bound: never more shards than capacity.
	if got := NewShardedCache(4, 64).Shards(); got != 4 {
		t.Fatalf("shards clamped to %d, want 4", got)
	}
	// Capacity is a total across shards, not per shard: overflow beyond
	// maxEntries must evict even when keys spread unevenly.
	for _, tc := range []struct{ max, shards int }{{100, 8}, {64, 8}, {7, 3}} {
		c := NewShardedCache(tc.max, tc.shards)
		for i := 0; i < 4*tc.max; i++ {
			c.Put(fakeKey(i), &cacheEntry{})
		}
		if got := c.Len(); got > tc.max {
			t.Errorf("NewShardedCache(%d,%d): holds %d entries, bound %d", tc.max, tc.shards, got, tc.max)
		}
	}
}

func TestShardedCacheSpreadsEntries(t *testing.T) {
	// 512 distinct fingerprints into a per-shard-bounded cache: if routing
	// collapsed onto one shard, only ~1/8 of the entries could survive.
	c := NewShardedCache(4096, 8)
	for i := 0; i < 512; i++ {
		c.Put(fakeKey(i), &cacheEntry{})
	}
	if got := c.Len(); got != 512 {
		t.Fatalf("kept %d of 512 distinct entries; routing is collapsing shards", got)
	}
}

// TestShardedCacheConcurrent drives hits, misses and evictions across
// shards from many goroutines; run under -race this is the contention
// safety test the serving layer depends on.
func TestShardedCacheConcurrent(t *testing.T) {
	const (
		goroutines = 16
		perG       = 400
		capacity   = 64 // small, to force constant eviction
	)
	c := NewShardedCache(capacity, 8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fakeKey((g*perG + i) % 200) // overlapping key space
				if _, ok := c.Get(k); !ok {
					c.Put(k, &cacheEntry{})
				}
				if i%50 == 0 {
					c.Stats()
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, goroutines*perG)
	}
	if c.Len() > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", c.Len(), capacity)
	}
}

// TestPipelineWithShardedCache runs a real batch twice over a sharded
// cache and checks the second round is all hits.
func TestPipelineWithShardedCache(t *testing.T) {
	c := NewCompiler(Options{Cache: NewShardedCache(0, 4)})
	specs := []Spec{
		{Graph: workloads.ThreeDFT(), Select: selectCfg(4)},
		{Graph: workloads.Fig4Small(), Select: selectCfg(2)},
	}
	reps, errs := c.CompileAll(context.Background(), specs, 4)
	for i, r := range reps {
		if errs[i] != nil {
			t.Fatalf("cold run: %v", errs[i])
		}
		if r.CacheHit {
			t.Fatal("cold run reported a cache hit")
		}
	}
	reps, errs = c.CompileAll(context.Background(), specs, 4)
	for i, r := range reps {
		if errs[i] != nil {
			t.Fatalf("warm run: %v", errs[i])
		}
		if !r.CacheHit {
			t.Fatalf("warm run missed the cache for %q", specs[i].Label())
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []Spec{
		{Graph: workloads.ThreeDFT(), Select: selectCfg(4)},
		{Graph: workloads.Fig4Small(), Select: selectCfg(2)},
	}
	reps, errs := NewCompiler(Options{}).CompileAll(ctx, specs, 2)
	for i, err := range errs {
		if err == nil || reps[i] != nil {
			t.Fatalf("spec %q completed under a cancelled context", specs[i].Label())
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("spec %q error %v, want context.Canceled", specs[i].Label(), err)
		}
	}
}

// BenchmarkCacheShardedVsSingle measures lookup throughput under
// contention: every operation is a hit that still takes the shard lock to
// refresh LRU recency — the serving steady state. The single-mutex cache
// serialises all goroutines; the sharded cache spreads them across
// independent locks. The win scales with real parallelism: on a
// single-core host only the sharded variant's fixed routing cost (~an
// FNV-1a over 16 bytes) is visible, since an uncontended mutex is cheap;
// run with several hardware threads to see the single mutex degrade.
func BenchmarkCacheShardedVsSingle(b *testing.B) {
	const keys = 1024
	fill := func(c ResultCache) []string {
		ks := make([]string, keys)
		for i := range ks {
			ks[i] = fakeKey(i)
			c.Put(ks[i], &cacheEntry{})
		}
		return ks
	}
	bench := func(b *testing.B, c ResultCache) {
		ks := fill(c)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := c.Get(ks[i%keys]); !ok {
					b.Error("unexpected miss")
					return
				}
				i++
			}
		})
	}
	b.Run("single", func(b *testing.B) { bench(b, NewShardedCache(2*keys, 1)) })
	b.Run("sharded", func(b *testing.B) { bench(b, NewShardedCache(2*keys, 0)) })
}
