// Package fleet scales the compile service horizontally: a router
// daemon (cmd/mpschedrouter) speaks the same /v1 wire as mpschedd —
// both codecs, batch envelopes included — and consistent-hashes each
// request's routing key across a pool of backend daemons, so identical
// requests always land on the same node and every backend's result
// cache stays hot without any shared state.
//
// Three pieces:
//
//   - ring.go — a consistent-hash ring with virtual nodes. Removing a
//     backend moves only that backend's keys; everyone else's cache
//     affinity is untouched.
//   - pool.go — health-checked backends: periodic /healthz probes,
//     demotion on probe failure, forward transport faults or an open
//     per-backend circuit breaker (the PR 8 client keyed per base URL),
//     ring rebuild on death and revival, failover to the next ring
//     replica when the owner cannot serve.
//   - router.go + batch.go — the /v1 handlers. routeKey places each
//     compile by its graph fingerprint plus its name, workload spec and
//     compile parameters. The router holds no results: a key that moves
//     to a new owner is compiled there, and when every replica is down
//     the request gets a 503 with Retry-After.
//
// The router's HTTP front is mpschedd's: obs.Edge counts, times and
// traces its routes and serves /debug/traces, internal/wire reads its
// requests — decoded, with their deadlines merged — and writes its
// answers, and its /metrics families are declared on an obs.Registry
// (metrics.go). Only routing, forwarding and failover are the router's
// own: every forward, whether a /v1/compile failover step, a /v1/jobs
// submission or a batch sub-envelope, runs through one attempt function.
//
// Traces and deadlines propagate through the hop: the router decrements
// X-Mpsched-Deadline by its own elapsed time before forwarding, reuses
// the client's X-Mpsched-Trace ID on the backend leg, and records a
// "hop" span per forward so /debug/traces splits router time from
// backend time.
package fleet

import (
	"sort"
	"strconv"
)

// fnv1a64 hashes a string with 64-bit FNV-1a — fast, dependency-free,
// and well-mixed enough for ring placement (keys are already sha256
// fingerprints or short spec strings).
func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// DefaultVNodes is the virtual-node count per backend. 64 points per
// member keeps the load split within a few percent of even at small
// fleet sizes while a 4-backend ring is still only 256 points — a
// binary search over it is noise next to a forward.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a member.
type ringPoint struct {
	hash   uint64
	member int32
}

// ring is an immutable consistent-hash ring over member indices. The
// pool swaps whole rings atomically on topology changes, so lookups
// never lock.
type ring struct {
	points  []ringPoint // sorted by hash
	members []int       // distinct members on the ring, ascending
}

// newRing builds a ring of the given members (backend indices) with
// vnodes virtual nodes each (≤ 0 means DefaultVNodes). An empty member
// list yields an empty ring: owner and sequence report nothing.
func newRing(members []int, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &ring{
		points:  make([]ringPoint, 0, len(members)*vnodes),
		members: append([]int(nil), members...),
	}
	sort.Ints(r.members)
	for _, m := range r.members {
		// Each member's points depend only on its own index, so removing
		// a member never moves anyone else's points — the property that
		// keeps cache affinity stable across topology changes.
		prefix := "backend-" + strconv.Itoa(m) + "#"
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   fnv1a64(prefix + strconv.Itoa(v)),
				member: int32(m),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// start returns the index of the first ring point at or after h,
// wrapping past the top of the circle.
func (r *ring) start(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// owner returns the member owning key hash h — the first point clockwise
// from h — and false on an empty ring.
func (r *ring) owner(h uint64) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	return int(r.points[r.start(h)].member), true
}

// sequence appends the ring's preference order for h to buf: the owner
// first, then each further member in the order their points appear
// clockwise. Every ring member appears exactly once — this is the
// failover order a router walks when the owner cannot serve.
func (r *ring) sequence(h uint64, buf []int) []int {
	if len(r.points) == 0 {
		return buf
	}
	seen := make(map[int32]bool, len(r.members))
	start := r.start(h)
	for i := 0; i < len(r.points) && len(seen) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			buf = append(buf, int(p.member))
		}
	}
	return buf
}
