package pipeline

import (
	"mpsched/internal/alloc"
	"mpsched/internal/patsel"
	"mpsched/internal/sched"
	"mpsched/internal/store"
)

// The pipeline's result cache is internal/store — the unified tiered
// result store — instantiated at the pipeline's entry type.
// NewShardedCache builds the in-memory tier, and NewTieredCache adds the
// persistent disk tier behind it.
//
// Cached results are shared, never deep-copied: hits return schedules
// whose slices alias the cached entry. Treat compilation results as
// immutable — everything downstream (verification, rendering,
// simulation) only reads them.

// Stats is the unified cache counter snapshot (an alias for
// store.Stats, which every tier reports).
type Stats = store.Stats

// ResultCache is the cache surface a Compiler consumes. It is the
// unified store API instantiated at the pipeline's package-private entry
// type, so external implementations would have nothing to store.
type ResultCache = store.Store[*cacheEntry]

// DefaultCacheEntries bounds a cache built with maxEntries ≤ 0. A full
// entry for a paper-sized workload is a few kilobytes, so the default
// costs megabytes at worst while covering far more distinct workloads
// than a steady-state fleet presents.
const DefaultCacheEntries = store.DefaultEntries

// cacheEntry is the unit the result store holds: the finished
// Selection/Schedule/Program for one (graph, config) key, plus the
// summary fields that reconstruct a Report on a hit. The full
// antichain.Result is not cached as such, but on the memory tier it
// stays reachable through Selection.Enumerated; the disk tier drops it
// (see entryCodec).
type cacheEntry struct {
	selection *patsel.Selection
	schedule  *sched.Schedule
	program   *alloc.Program
	census    *CensusSummary
	span      int
	swept     bool
}

// NewShardedCache returns an in-memory result cache: a content-addressed
// LRU keyed on graph fingerprint plus the full configuration, split into
// `shards` independently-locked shards holding at most maxEntries results
// in total. maxEntries ≤ 0 selects DefaultCacheEntries; shards ≤ 0
// selects store.DefaultShards(). Under a serving workload every request
// takes a shard lock at least once (even hits, to refresh LRU recency),
// so several shards keep concurrent compiles from serialising on one
// mutex; keys lead with the graph's content hash, which keeps the shards
// balanced.
func NewShardedCache(maxEntries, shards int) *store.Memory[*cacheEntry] {
	return store.NewMemory[*cacheEntry](maxEntries, shards)
}

// NewTieredCache composes the sharded memory cache over a persistent
// disk tier rooted at dir, so a restarted process starts warm: lookups
// missing memory fall through to disk and promote, puts write through.
// maxEntries/shards size the memory tier as in NewShardedCache; maxBytes
// bounds the disk tier (0 means store.DefaultMaxBytes); logf (optional)
// receives corruption and eviction reports.
func NewTieredCache(maxEntries, shards int, dir string, maxBytes int64, logf store.Logf) (ResultCache, error) {
	mem := NewShardedCache(maxEntries, shards)
	disk, err := store.Open[*cacheEntry](dir, maxBytes, entryCodec{}, logf)
	if err != nil {
		return nil, err
	}
	return store.NewTiered[*cacheEntry](mem, disk), nil
}
