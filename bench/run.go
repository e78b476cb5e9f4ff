package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"throughput_cps", "compiles/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cycles_over_bound", "ratio", "lower", 0.005},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var perLayer = []metricDef{
	{"client.self_us_p50", "us", "lower", 0},
	{"client.self_us_p99", "us", "lower", 0},
	{"client.self_share", "ratio", "lower", 0},
	{"fleet.self_us_p50", "us", "lower", 0},
	{"fleet.self_us_p99", "us", "lower", 0},
	{"fleet.self_share", "ratio", "lower", 0},
	{"fleet.forwards_per_request", "count", "lower", 0},
	{"server.handler_us_p50", "us", "lower", 0},
	{"server.handler_us_p99", "us", "lower", 0},
	{"server.self_us_p50", "us", "lower", 0},
	{"server.self_us_p99", "us", "lower", 0},
	{"server.self_share", "ratio", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"store.get_us_p99", "us", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.share", "ratio", "lower", 0},
	{"store.hit_ratio", "ratio", "higher", 0},
	{"store.disk_hits", "count", "higher", 0},
	{"wire.req_bytes", "bytes", "lower", 0},
	{"wire.resp_bytes", "bytes", "lower", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.encode_us", "us", "lower", 0},
	{"dfg.decode_us", "us", "lower", 0},
	{"dfg.fingerprint_us", "us", "lower", 0},
	{"pipeline.hit_us", "us", "lower", 0},
	{"antichain.census_us", "us", "lower", 0},
	{"antichain.antichains", "count", "lower", 0},
	{"antichain.ns_per_antichain", "ns", "lower", 0},
	{"patsel.select_us", "us", "lower", 0},
	{"sched.schedule_us", "us", "lower", 0},
	{"sched.cycles", "count", "lower", 0},
	{"trace_overhead", "ratio", "lower", 0},
}

func defOf(name string) metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d
			}
		}
	}
	panic("bench: undefined metric " + name)
}

// metric is one measured value. Missing marks a percentile refused for
// too few samples beyond it; it prints as n/a and stays out of the JSON.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Note    string  `json:"note,omitempty"`
	Missing bool    `json:"missing,omitempty"`
}

func newMetric(name string, v float64, note string) metric {
	return metric{Name: name, Value: v, Unit: defOf(name).unit, Note: note}
}

// result is what one workload run reports; a child process prints it as
// JSON for the parent.
type result struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	Rejected     int64    `json:"rejected"`
	VerifyFailed int64    `json:"verify_failed"`
	Errors       []string `json:"errors,omitempty"`
	Metrics      []metric `json:"metrics"`
}

func (r *result) correct() bool { return r.VerifyFailed == 0 }

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, !m.Missing
		}
	}
	return metric{}, false
}

// runConfig is one workload run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // measured seconds
	trace   bool
	tmpDir  string // parent of the on-disk stores
	outDir  string // where traced runs write their span files
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up carries the load.
const setupReps = 5

// runWorkload runs one workload in this process: set-up, warm-up, the
// measured closed loop and, on traced runs, the replays.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	inputs, err := cfg.w.inputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	tl := &tally{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var e *env
	setups := make([]time.Duration, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			runtime.GC() // the next set-up starts from the same heap
		}
		t0 := time.Now()
		if e, err = setUp(ctx, cfg.w, cfg.seed, inputs, cfg.tmpDir, tl, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer e.close() // for error paths; the others close e and check the error

	measured := time.Duration(cfg.seconds * float64(time.Second))
	var rss *rssSampler
	if !cfg.trace {
		rss = startRSS()
	}
	e.drive(ctx, min(2*time.Second, measured/10), false) // warm-up
	var metrics []metric
	if !cfg.trace {
		ph := e.drive(ctx, measured, false)
		peak, err := rss.stopMB()
		if err != nil {
			return nil, err
		}
		metrics = append(endToEndMetrics(ph, e, setups),
			newMetric("peak_rss_mb", peak, fmt.Sprintf("peak resident set over warm-up and load, sampled every %v", rssEvery)))
		if err := e.close(); err != nil {
			return nil, err
		}
	} else {
		if metrics, err = traceRun(ctx, cfg, e, tr, measured); err != nil {
			return nil, err
		}
	}

	tl.mu.Lock()
	defer tl.mu.Unlock()
	return &result{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Attempted: tl.attempted.Load(), Failed: tl.failed.Load(),
		Rejected: tl.rejected.Load(), VerifyFailed: tl.verifyFailed.Load(),
		Errors: tl.errs, Metrics: metrics,
	}, nil
}

func endToEndMetrics(ph phase, e *env, setups []time.Duration) []metric {
	per := "per request"
	if e.w.batch > 0 {
		per = fmt.Sprintf("per envelope of %d", e.w.batch)
	}
	p50, p99 := ph.typicalLatency("latency_p50_ms", time.Millisecond), ph.latency("latency_p99_ms", 0.99, time.Millisecond)
	p50.Note += ", " + per
	p99.Note += ", " + per
	return []metric{
		newMetric("throughput_cps", ph.throughput(),
			fmt.Sprintf("median of %d slices; %d compiles in %v", timeSlices, ph.compiles(), ph.window)),
		p50, p99,
		newMetric("cycles_over_bound", e.cyclesOverBound(), "over the fixed kernels"),
		newMetric("setup_s", medianDuration(setups).Seconds(), fmt.Sprintf("median of %d set-ups", len(setups))),
	}
}

// traceRun measures the per-layer metrics: the traced window between two
// untraced eighth-length windows (for the tracing overhead, so that drift
// across the run falls on both sides), then the replays. It closes e.
func traceRun(ctx context.Context, cfg runConfig, e *env, tr *tracer, measured time.Duration) ([]metric, error) {
	before := e.drive(ctx, measured/8, false)
	st0, disk0 := e.cacheStats()
	tr.on.Store(true)
	traced := e.drive(ctx, measured, true)
	tr.on.Store(false)
	st1, disk1 := e.cacheStats()
	after := e.drive(ctx, measured/8, false)
	if err := e.close(); err != nil { // handlers finish, so every span is in
		return nil, err
	}
	liveSpans := tr.taken()
	live := analyze(liveSpans)

	var net *layers
	var netSpans []span
	if live.fleetSpans == 0 || len(live.storeGet) == 0 || len(live.storePut) == 0 {
		var err error
		if netSpans, err = netReplay(ctx, e); err != nil {
			return nil, err
		}
		net = analyze(netSpans)
	}
	fn, err := fnReplay(e)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json"), cfg.w.name, liveSpans, netSpans); err != nil {
		return nil, err
	}

	ms := liveMetrics(live, net)
	hits, lookups := st1.Hits-st0.Hits, st1.Hits+st1.Misses-st0.Hits-st0.Misses
	ms = append(ms,
		newMetric("store.hit_ratio", ratio(float64(hits), float64(lookups)), fmt.Sprintf("%d of %d lookups", hits, lookups)),
		newMetric("store.disk_hits", float64(disk1-disk0), "disk-tier hits in the traced window"))
	ms = append(ms, fn...)
	plain := (before.throughput() + after.throughput()) / 2
	ms = append(ms, newMetric("trace_overhead", 1-ratio(traced.throughput(), plain),
		fmt.Sprintf("1 - traced/untraced throughput_cps (%.0f / %.0f)", traced.throughput(), plain)))
	return order(ms), nil
}

// liveMetrics are the span-derived metrics. What the workload's own path
// lacks (the router off mixed-fleet, the store on cold-corpus, store puts
// on the warm workloads) comes from net, the replay of its inputs through
// a router and a cached daemon.
func liveMetrics(live, net *layers) []metric {
	share := func(name string, part time.Duration) metric {
		v := 0.0
		if live.e2e > 0 {
			v = float64(part) / float64(live.e2e)
		}
		return newMetric(name, v, "of client latency")
	}
	pct := func(name string, xs []time.Duration, q float64, src string) metric {
		m := percentile(name, newDist(xs), q, time.Microsecond)
		m.Note = src + ", " + m.Note
		return m
	}
	ms := []metric{
		pct("client.self_us_p50", live.clientSelf, 0.50, "live"),
		pct("client.self_us_p99", live.clientSelf, 0.99, "live"),
		share("client.self_share", live.clientSum),
		pct("server.handler_us_p50", live.serverSpan, 0.50, "live"),
		pct("server.handler_us_p99", live.serverSpan, 0.99, "live"),
		pct("server.self_us_p50", live.serverSelf, 0.50, "live"),
		pct("server.self_us_p99", live.serverSelf, 0.99, "live"),
		share("server.self_share", live.serverSum),
		share("fleet.self_share", live.fleetSum),
		share("store.share", live.storeSum),
	}

	fl, src := live, "live"
	if live.fleetSpans == 0 {
		fl, src = net, "replay"
	}
	ms = append(ms,
		pct("fleet.self_us_p50", fl.fleetSelf, 0.50, src),
		pct("fleet.self_us_p99", fl.fleetSelf, 0.99, src),
		newMetric("fleet.forwards_per_request", ratio(float64(fl.forwards), float64(fl.fleetSpans)),
			fmt.Sprintf("%s, %d backend calls for %d requests", src, fl.forwards, fl.fleetSpans)))

	gets, src := live.storeGet, "live"
	if len(gets) == 0 {
		gets, src = net.storeGet, "replay"
	}
	ms = append(ms, pct("store.get_us_p50", gets, 0.50, src), pct("store.get_us_p99", gets, 0.99, src))
	puts, src := live.storePut, "live"
	if len(puts) == 0 {
		puts, src = net.storePut, "replay"
	}
	ms = append(ms, newMetric("store.put_us", meanMicros(puts), fmt.Sprintf("%s, mean of %d", src, len(puts))))

	ms = append(ms,
		newMetric("wire.req_bytes", ratio(float64(live.reqBytes), float64(live.requests)), "mean request body at the outermost handler"),
		newMetric("wire.resp_bytes", ratio(float64(live.respBytes), float64(live.requests)), "mean response body at the outermost handler"))
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanMicros(xs []time.Duration) float64 {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return ratio(float64(sum)/float64(time.Microsecond), float64(len(xs)))
}

// order sorts metrics into perLayer's order.
func order(ms []metric) []metric {
	out := make([]metric, 0, len(ms))
	for _, d := range perLayer {
		for _, m := range ms {
			if m.Name == d.name {
				out = append(out, m)
			}
		}
	}
	return out
}

// rssEvery is how often rssSampler reads the resident set.
const rssEvery = 20 * time.Millisecond

// rssSampler tracks the process's peak resident set while the load runs:
// the footprint of serving the workload, without the set-ups before it.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64 // pages; owned by the sampling goroutine until done
	err        error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if s.err = s.sample(); s.err != nil {
				return
			}
			select {
			case <-s.stop:
				s.err = s.sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() error {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return errors.New("resident set: short /proc/self/statm")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return fmt.Errorf("resident set: %w", err)
	}
	s.peak = max(s.peak, pages)
	return nil
}

// stopMB stops sampling and returns the peak in MiB.
func (s *rssSampler) stopMB() (float64, error) {
	close(s.stop)
	<-s.done
	return float64(s.peak*int64(os.Getpagesize())) / (1 << 20), s.err
}
