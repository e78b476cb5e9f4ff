// Package store is the unified result-store layer: the compiler's result
// cache (memory and disk tiers) and the daemon's and router's
// workload-spec caches share one API:
//
//	Store[V]    Get / Put / Stats / Len / Reset / Close
//	Memory[V]   a sharded in-process LRU tier
//	Disk[V]     a persistent, fingerprint-addressed segment-file tier
//	Tiered[V]   memory in front of disk: hits promote, puts write through
//
// The disk tier is what makes restarts warm: entries survive the process
// in a versioned, checksummed binary layout (see disk.go), so a daemon
// started with the same directory serves yesterday's compiles from disk
// instead of re-enumerating them. Values are opaque to the store — each
// consumer supplies a Codec that serialises its own entry type.
package store

import (
	"fmt"
)

// Stats is a point-in-time snapshot of one store tier (or of a whole
// tiered store). It is the single stats shape every cache in the repo now
// reports — previously ShardedCache summed per-shard counters into a
// struct with no eviction field, silently losing eviction counts.
type Stats struct {
	// Hits and Misses count lookups.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped to stay within the tier's bound
	// (per entry, not per segment — evicting a 100-entry disk segment
	// counts 100).
	Evictions int64
	// Entries is the number of live entries.
	Entries int
	// Bytes is the tier's storage footprint where it is tracked (the disk
	// tier); 0 for tiers that do not account bytes.
	Bytes int64
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s Stats) String() string {
	return fmt.Sprintf("cache: %d entries, %d hits, %d misses (%.0f%% hit rate)",
		s.Entries, s.Hits, s.Misses, 100*s.HitRate())
}

// Store is the tier-agnostic cache surface. Implementations are safe for
// concurrent use.
type Store[V any] interface {
	// Get returns the value under key, counting a hit or a miss.
	Get(key string) (V, bool)
	// Put stores the value under key, evicting as needed.
	Put(key string, v V)
	// Stats returns point-in-time effectiveness counters.
	Stats() Stats
	// Len returns the number of live entries.
	Len() int
	// Reset drops every entry and zeroes the counters.
	Reset()
	// Close releases resources (files, for the disk tier). The store must
	// not be used after Close.
	Close() error
}

// Codec serialises one consumer's value type for the disk tier. Encoding
// appends to buf (which may be nil) and must be deterministic — the
// repo's reproducibility contract is that the same compile stores the
// same bytes.
type Codec[V any] interface {
	Append(buf []byte, v V) ([]byte, error)
	Decode(data []byte) (V, error)
}

// TierStats labels one tier's counters inside a Tiered store, for
// per-tier metrics exposition.
type TierStats struct {
	Tier string
	Stats
}

// Tiers is implemented by Tiered; serving layers type-assert their
// Store to it to export per-tier gauges without knowing the value type.
type Tiers interface {
	Tiers() []TierStats
}
