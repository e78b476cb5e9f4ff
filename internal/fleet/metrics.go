package fleet

import (
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/server/client"
	"mpsched/internal/store"
	"mpsched/internal/wire"
)

// routerMetrics is the router's /metrics surface, declared on an
// obs.Registry under the mpschedrouter_ prefix: the request families
// mpschedd has too, plus the fleet-specific per-backend series the CI
// fleet gates scrape (backend_up, forwarded/rerouted/errors per backend)
// and the graph store's counters. Pool, resilience and graph-store state
// is read at scrape time.
type routerMetrics struct {
	reg            *obs.Registry
	requests       *obs.CounterVec // route
	inflight       *obs.Counter
	requestSeconds *obs.SummaryVec // route
}

func newRouterMetrics(p *pool, root *client.Client, graphs *wire.GraphStore, start time.Time) *routerMetrics {
	r := &obs.Registry{}
	m := &routerMetrics{reg: r}
	m.requests = r.CounterVec("mpschedrouter_requests_total", "HTTP requests by route.", "route")

	perBackend := func(name, help string, kind obs.Kind, v func(*Backend) int64) {
		r.Func(name, help, kind, []string{"backend"}, func(emit func(float64, ...string)) {
			for _, b := range p.backends {
				emit(float64(v(b)), b.URL)
			}
		})
	}
	perBackend("mpschedrouter_backend_up", "Whether each backend is in rotation (1) or demoted (0).", obs.KindGauge,
		func(b *Backend) int64 {
			if b.Up() {
				return 1
			}
			return 0
		})
	perBackend("mpschedrouter_forwarded_total", "Requests forwarded per backend (any outcome).", obs.KindCounter,
		func(b *Backend) int64 { return b.forwarded.Load() })
	perBackend("mpschedrouter_rerouted_total", "Forwards that were failovers from an earlier ring replica.", obs.KindCounter,
		func(b *Backend) int64 { return b.rerouted.Load() })
	perBackend("mpschedrouter_backend_errors_total", "Forwards that failed with a transport fault, 5xx, or open breaker.", obs.KindCounter,
		func(b *Backend) int64 { return b.errored.Load() })

	r.Value("mpschedrouter_backends", "Configured fleet size.", obs.KindGauge,
		func() float64 { return float64(len(p.backends)) })
	r.Value("mpschedrouter_backends_up", "Backends currently in rotation.", obs.KindGauge,
		func() float64 { return float64(p.upCount()) })
	r.Value("mpschedrouter_demotions_total", "Backends taken out of rotation for health.", obs.KindCounter,
		func() float64 { return float64(p.demotions.Load()) })
	r.Value("mpschedrouter_rebalances_total", "Hash-ring rebuilds (demotions plus revivals).", obs.KindCounter,
		func() float64 { return float64(p.rebalances.Load()) })

	// The forwarding clients share one resilience layer, so these are
	// fleet-wide sums.
	resilient := func(name, help string, v func(client.ResilienceStats) int64) {
		r.Value(name, help, obs.KindCounter, func() float64 { return float64(v(root.ResilienceStats())) })
	}
	resilient("mpschedrouter_retried_total", "Forward attempts retried by the client layer.",
		func(s client.ResilienceStats) int64 { return s.Retries })
	resilient("mpschedrouter_hedged_total", "Forward attempts hedged by the client layer.",
		func(s client.ResilienceStats) int64 { return s.Hedges })
	resilient("mpschedrouter_hedge_wins_total", "Hedged attempts that produced the winning response.",
		func(s client.ResilienceStats) int64 { return s.HedgeWins })
	resilient("mpschedrouter_breaker_trips_total", "Per-backend circuit-breaker openings.",
		func(s client.ResilienceStats) int64 { return s.BreakerTrips })
	resilient("mpschedrouter_breaker_fast_fails_total", "Forwards rejected on an already-open breaker.",
		func(s client.ResilienceStats) int64 { return s.BreakerFastFails })

	// Every workload spec and inline graph a request carries is one
	// lookup.
	graphStat := func(name, help string, kind obs.Kind, v func(store.Stats) float64) {
		r.Value(name, help, kind, func() float64 { return v(graphs.Stats()) })
	}
	graphStat("mpschedrouter_graph_cache_hits_total", "Request graphs served decoded from the graph store.", obs.KindCounter,
		func(s store.Stats) float64 { return float64(s.Hits) })
	graphStat("mpschedrouter_graph_cache_misses_total", "Request graphs the graph store did not hold, decoded or generated.", obs.KindCounter,
		func(s store.Stats) float64 { return float64(s.Misses) })
	graphStat("mpschedrouter_graph_cache_evictions_total", "Graphs dropped to keep the graph store within its bound.", obs.KindCounter,
		func(s store.Stats) float64 { return float64(s.Evictions) })
	graphStat("mpschedrouter_graph_cache_entries", "Graphs currently in the graph store.", obs.KindGauge,
		func(s store.Stats) float64 { return float64(s.Entries) })

	m.inflight = r.Gauge("mpschedrouter_inflight_requests", "HTTP requests currently being handled.")
	r.Value("mpschedrouter_uptime_seconds", "Seconds since the router started.", obs.KindGauge,
		func() float64 { return time.Since(start).Seconds() })
	m.requestSeconds = r.SummaryVec("mpschedrouter_request_seconds", "End-to-end request latency by route.", "route")
	return m
}
