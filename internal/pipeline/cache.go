package pipeline

import (
	"mpsched/internal/alloc"
	"mpsched/internal/patsel"
	"mpsched/internal/sched"
	"mpsched/internal/store"
)

// The pipeline's caches are thin wrappers over internal/store — the
// unified tiered result store. Cache and ShardedCache survive as named
// constructors for the two shapes earlier PRs exposed; both now share
// the store.Memory implementation, and NewTieredCache adds the
// persistent disk tier behind either.
//
// Cached results are shared, never deep-copied: hits return schedules
// whose slices alias the cached entry. Treat compilation results as
// immutable — everything downstream (verification, rendering,
// simulation) only reads them.

// Stats is the unified cache counter snapshot (an alias for
// store.Stats, which every tier reports — including the eviction count
// the old sharded cache dropped).
type Stats = store.Stats

// ResultCache is the cache surface a Pipeline consumes. It is the
// unified store API instantiated at the pipeline's package-private entry
// type, so external implementations would have nothing to store — the
// same sealing the old unexported-method interface provided.
type ResultCache = store.Store[*cacheEntry]

// DefaultCacheEntries bounds a NewCache(0) cache. A full entry for a
// paper-sized workload is a few kilobytes, so the default costs megabytes
// at worst while covering far more distinct workloads than a steady-state
// fleet presents.
const DefaultCacheEntries = store.DefaultEntries

// cacheEntry is the unit the result store holds: the finished
// Selection/Schedule/Program for one (graph, config) key, plus the
// summary fields that reconstruct a Report on a hit. The full
// antichain.Result is deliberately not cached (Selection.Enumerated
// still carries it for callers that need the classes).
type cacheEntry struct {
	selection *patsel.Selection
	schedule  *sched.Schedule
	program   *alloc.Program
	census    *CensusSummary
	span      int
	swept     bool
}

// Cache is a content-addressed compilation cache: graph fingerprint plus
// the full configuration (selection, scheduling, architecture) maps to
// the finished Selection/Schedule/Program. Entries are evicted
// least-recently-used once maxEntries is exceeded. Safe for concurrent
// use. Since the store redesign it is a single-shard store.Memory.
type Cache struct {
	*store.Memory[*cacheEntry]
}

// NewCache returns an empty cache holding at most maxEntries results.
// maxEntries ≤ 0 selects DefaultCacheEntries.
func NewCache(maxEntries int) *Cache {
	return &Cache{store.NewMemory[*cacheEntry](maxEntries, 1)}
}
