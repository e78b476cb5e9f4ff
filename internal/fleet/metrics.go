package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/server/client"
)

// routerMetrics holds the router's counters and latency distributions,
// exported in Prometheus text format at GET /metrics under the
// mpschedrouter_ prefix — same families and idioms as mpschedd's
// surface, plus the fleet-specific per-backend series the CI scaling
// gate scrapes (backend_up, forwarded/rerouted/errors per backend).
type routerMetrics struct {
	start time.Time

	inflight atomic.Int64

	mu       sync.Mutex
	requests map[string]int64
	reqHist  map[string]*obs.LockedHistogram // route → end-to-end latency
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		start:    time.Now(),
		requests: map[string]int64{},
		reqHist:  map[string]*obs.LockedHistogram{},
	}
}

func (m *routerMetrics) incRequest(route string) {
	m.mu.Lock()
	m.requests[route]++
	m.mu.Unlock()
}

func (m *routerMetrics) observeRequest(route string, d time.Duration) {
	m.mu.Lock()
	h := m.reqHist[route]
	if h == nil {
		h = &obs.LockedHistogram{}
		m.reqHist[route] = h
	}
	m.mu.Unlock()
	h.Record(d)
}

// summary mirrors server/metrics.go's summary helper: the p50/p99
// samples plus _sum and _count of one label set.
func summary(w io.Writer, name, labels string, h obs.Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	fmt.Fprintf(w, "%s{%s%squantile=\"0.5\"} %g\n", name, labels, sep, h.Quantile(0.5).Seconds())
	fmt.Fprintf(w, "%s{%s%squantile=\"0.99\"} %g\n", name, labels, sep, h.Quantile(0.99).Seconds())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum().Seconds(), name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.Sum().Seconds(), name, labels, h.Count())
	}
}

// render writes the Prometheus text exposition. The pool and the
// forwarding clients' resilience stats are sampled at scrape time.
func (m *routerMetrics) render(w io.Writer, p *pool, stats client.ResilienceStats) {
	uptime := time.Since(m.start).Seconds()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	m.mu.Lock()
	routes := make([]string, 0, len(m.requests))
	for r := range m.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	counts := make([]int64, len(routes))
	for i, r := range routes {
		counts[i] = m.requests[r]
	}
	histRoutes := make([]string, 0, len(m.reqHist))
	for r := range m.reqHist {
		histRoutes = append(histRoutes, r)
	}
	sort.Strings(histRoutes)
	hists := make([]*obs.LockedHistogram, len(histRoutes))
	for i, r := range histRoutes {
		hists[i] = m.reqHist[r]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP mpschedrouter_requests_total HTTP requests by route.\n# TYPE mpschedrouter_requests_total counter\n")
	for i, r := range routes {
		fmt.Fprintf(w, "mpschedrouter_requests_total{route=%q} %d\n", r, counts[i])
	}

	// Per-backend fleet state — the series the CI fleet gate scrapes.
	fmt.Fprintf(w, "# HELP mpschedrouter_backend_up Whether each backend is in rotation (1) or demoted (0).\n# TYPE mpschedrouter_backend_up gauge\n")
	for _, b := range p.backends {
		up := 0
		if b.Up() {
			up = 1
		}
		fmt.Fprintf(w, "mpschedrouter_backend_up{backend=%q} %d\n", b.URL, up)
	}
	fmt.Fprintf(w, "# HELP mpschedrouter_forwarded_total Requests forwarded per backend (any outcome).\n# TYPE mpschedrouter_forwarded_total counter\n")
	for _, b := range p.backends {
		fmt.Fprintf(w, "mpschedrouter_forwarded_total{backend=%q} %d\n", b.URL, b.forwarded.Load())
	}
	fmt.Fprintf(w, "# HELP mpschedrouter_rerouted_total Forwards that were failovers from an earlier ring replica.\n# TYPE mpschedrouter_rerouted_total counter\n")
	for _, b := range p.backends {
		fmt.Fprintf(w, "mpschedrouter_rerouted_total{backend=%q} %d\n", b.URL, b.rerouted.Load())
	}
	fmt.Fprintf(w, "# HELP mpschedrouter_backend_errors_total Forwards that failed with a transport fault, 5xx, or open breaker.\n# TYPE mpschedrouter_backend_errors_total counter\n")
	for _, b := range p.backends {
		fmt.Fprintf(w, "mpschedrouter_backend_errors_total{backend=%q} %d\n", b.URL, b.errored.Load())
	}

	gauge("mpschedrouter_backends", "Configured fleet size.", float64(len(p.backends)))
	gauge("mpschedrouter_backends_up", "Backends currently in rotation.", float64(p.upCount()))
	counter("mpschedrouter_demotions_total", "Backends taken out of rotation for health.", p.demotions.Load())
	counter("mpschedrouter_rebalances_total", "Hash-ring rebuilds (demotions plus revivals).", p.rebalances.Load())

	// The forwarding clients share one resilience layer, so these are
	// fleet-wide sums; per-backend splits live in the breaker/hedger maps
	// keyed by base URL, surfaced here as totals.
	counter("mpschedrouter_retried_total", "Forward attempts retried by the client layer.", stats.Retries)
	counter("mpschedrouter_hedged_total", "Forward attempts hedged by the client layer.", stats.Hedges)
	counter("mpschedrouter_hedge_wins_total", "Hedged attempts that produced the winning response.", stats.HedgeWins)
	counter("mpschedrouter_breaker_trips_total", "Per-backend circuit-breaker openings.", stats.BreakerTrips)
	counter("mpschedrouter_breaker_fast_fails_total", "Forwards rejected on an already-open breaker.", stats.BreakerFastFails)

	gauge("mpschedrouter_inflight_requests", "HTTP requests currently being handled.", float64(m.inflight.Load()))
	gauge("mpschedrouter_uptime_seconds", "Seconds since the router started.", uptime)

	if len(histRoutes) > 0 {
		fmt.Fprintf(w, "# HELP mpschedrouter_request_seconds End-to-end request latency by route.\n# TYPE mpschedrouter_request_seconds summary\n")
		for i, r := range histRoutes {
			summary(w, "mpschedrouter_request_seconds", fmt.Sprintf("route=%q", r), hists[i].Snapshot())
		}
	}
}
