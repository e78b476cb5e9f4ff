package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryExposition pins the text a Registry renders: families in
// registration order, labelled series in label-value order, scrape-time
// series in emit order, counters as integer text, gauges in %g form, a
// summary as p50, p99, _sum and _count, and nothing at all for a summary
// series without observations or a family without samples.
func TestRegistryExposition(t *testing.T) {
	r := &Registry{}
	req := r.CounterVec("x_requests_total", "Requests by route.", "route")
	big := r.Counter("x_big_total", "A large count.")
	r.Value("x_ratio", "A gauge.", KindGauge, func() float64 { return 0.25 })
	r.Func("x_tier_total", "Per tier.", KindCounter, []string{"tier"}, func(emit func(float64, ...string)) {
		emit(2, "memory")
		emit(1, "disk")
	})
	r.Func("x_none", "Never emits.", KindGauge, []string{"tier"}, func(func(float64, ...string)) {})
	lat := r.SummaryVec("x_seconds", "Latency by route and codec.", "route", "codec")
	idle := r.SummaryVec("x_idle_seconds", "Never observed.").With()
	wait := r.SummaryVec("x_wait_seconds", "Unlabelled.").With()

	req.With("b").Add(2)
	req.With("a").Add(1)
	big.Add(3_000_000)
	lat.With("b", "json").Record(2 * time.Millisecond)
	lat.With("a", `q"uote`) // created, never observed
	wait.Record(time.Second)
	_ = idle

	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_requests_total Requests by route.
# TYPE x_requests_total counter
x_requests_total{route="a"} 1
x_requests_total{route="b"} 2
# HELP x_big_total A large count.
# TYPE x_big_total counter
x_big_total 3000000
# HELP x_ratio A gauge.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_tier_total Per tier.
# TYPE x_tier_total counter
x_tier_total{tier="memory"} 2
x_tier_total{tier="disk"} 1
# HELP x_seconds Latency by route and codec.
# TYPE x_seconds summary
x_seconds{route="b",codec="json",quantile="0.5"} 0.002
x_seconds{route="b",codec="json",quantile="0.99"} 0.002
x_seconds_sum{route="b",codec="json"} 0.002
x_seconds_count{route="b",codec="json"} 1
# HELP x_wait_seconds Unlabelled.
# TYPE x_wait_seconds summary
x_wait_seconds{quantile="0.5"} 1
x_wait_seconds{quantile="0.99"} 1
x_wait_seconds_sum 1
x_wait_seconds_count 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryConcurrentUse: series are created, updated and scraped
// from many goroutines at once, and at every scrape a counter bumped
// before its observation never reads behind the observation count.
func TestRegistryConcurrentUse(t *testing.T) {
	r := &Registry{}
	req := r.CounterVec("y_requests_total", "Requests.", "route")
	lat := r.SummaryVec("y_seconds", "Latency.", "route")
	routes := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				route := routes[(g+i)%len(routes)]
				req.With(route).Add(1)
				lat.With(route).Record(time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.Write(&b); err != nil {
			t.Fatal(err)
		}
		m, err := ParseMetrics(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range routes {
			total, _ := m.Value("y_requests_total", "route", route)
			count, _ := m.Value("y_seconds_count", "route", route)
			if count > total {
				t.Fatalf("route %s: latency count %g ahead of requests %g", route, count, total)
			}
		}
	}
	wg.Wait()
}
