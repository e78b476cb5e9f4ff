package pipeline

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewShardedCache(3, 1)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), &cacheEntry{})
	}
	if _, ok := c.Get("k0"); !ok { // refresh k0: k1 is now oldest
		t.Fatal("k0 should be cached")
	}
	c.Put("k3", &cacheEntry{})
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted as least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
}

func TestCacheOverwriteSameKey(t *testing.T) {
	c := NewShardedCache(2, 1)
	c.Put("k", &cacheEntry{})
	c.Put("k", &cacheEntry{})
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheStatsAndReset(t *testing.T) {
	c := NewShardedCache(0, 1)
	c.Put("a", &cacheEntry{})
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
	c.Reset()
	st = c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// TestCacheEvictionsCounted pins the satellite fix: evictions are part of
// the unified Stats for single and sharded caches alike (the old
// sharded cache summed per-shard stats into a struct with no eviction
// field).
func TestCacheEvictionsCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    ResultCache
	}{
		{"single", NewShardedCache(4, 1)},
		{"sharded", NewShardedCache(8, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				tc.c.Put(fakeKey(i), &cacheEntry{})
			}
			st := tc.c.Stats()
			if st.Evictions == 0 {
				t.Fatal("evictions missing from Stats")
			}
			if got := st.Evictions + int64(st.Entries); got != 100 {
				t.Fatalf("evictions(%d) + entries(%d) = %d, want 100", st.Evictions, st.Entries, got)
			}
		})
	}
}

func TestCacheDefaultBound(t *testing.T) {
	c := NewShardedCache(0, 1)
	for i := 0; i < DefaultCacheEntries+10; i++ {
		c.Put(fmt.Sprintf("k%d", i), &cacheEntry{})
	}
	if c.Len() != DefaultCacheEntries {
		t.Fatalf("len = %d, want %d", c.Len(), DefaultCacheEntries)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewShardedCache(64, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%100)
				if _, ok := c.Get(key); !ok {
					c.Put(key, &cacheEntry{})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("len = %d exceeds bound", c.Len())
	}
}
