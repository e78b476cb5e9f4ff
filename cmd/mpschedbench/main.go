// Command mpschedbench is the load-generation front end: it storms a
// compile target — the in-process staged compiler by default, or a live
// mpschedd via -addr — with a scenario-corpus workload and reports
// latency quantiles, throughput, error/backpressure counts and the cache
// hit ratio as machine-readable JSON in the repo's BENCH_*.json schema
// (internal/benchfmt), so load results land in the same perf trajectory
// as the micro-benchmarks and are gated by the same scripts/benchcheck.
//
// Usage:
//
//	mpschedbench -scenario random:seed=1,n=64 -mode closed -clients 8 -duration 5s
//	mpschedbench -scenario mix:seed=1,count=8 -mode open -rps 200 -arrivals poisson -duration 10s
//	mpschedbench -addr http://localhost:8080 -scenario wide:stages=4,lanes=16 -duration 5s
//	mpschedbench -addr http://localhost:8080 -codec binary -batch 8 -clients 8 -duration 5s
//
// Against a remote daemon, -codec selects the wire format (json or the
// compact binary framing) and -batch N coalesces concurrent requests
// into /v1/batch envelopes of up to N jobs — the high-throughput path.
// -resilience arms the client's default retry/hedging/breaker stack;
// paired with a daemon running -chaos, that is the CI chaos gate:
//
//	mpschedbench -addr http://localhost:8080 -resilience -strict -duration 5s
//
// Scenario specs are any workload spec (see GET /v1/workloads or dfgtool
// -h) or a mix:seed=S,count=N[,tiers=...] blend. The same spec string
// always generates byte-identical graphs, locally and remotely.
//
// The JSON report goes to -out (default stdout); a human summary goes to
// stderr. With -strict the exit code is 1 when any request failed with a
// non-2xx/non-429 outcome or the latency histogram came back empty — the
// contract the CI loadgen smoke gate relies on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"mpsched/internal/benchfmt"
	"mpsched/internal/cliutil"
	"mpsched/internal/loadgen"
	"mpsched/internal/obs"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	// Backend children relay their stderr here from exec's copy
	// goroutines; one lock orders those writes with the bench's own.
	stderr = &forwardWriter{w: stderr}
	fs := flag.NewFlagSet("mpschedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "mix:seed=1,count=8", "scenario spec: a workload spec or mix:seed=S,count=N[,tiers=...]")
		mode     = fs.String("mode", "closed", "generator shape: closed (N clients back-to-back) or open (fixed arrival rate)")
		clients  = fs.Int("clients", 8, "closed-loop workers / open-loop in-flight cap")
		rps      = fs.Float64("rps", 100, "open-loop target arrivals per second")
		arrivals = fs.String("arrivals", "poisson", "open-loop inter-arrival distribution: poisson or uniform")
		duration = fs.Duration("duration", 5*time.Second, "how long to issue requests")
		addr     = fs.String("addr", "", "mpschedd base URL (e.g. http://localhost:8080); empty storms the in-process compiler")
		pdef     = fs.Int("pdef", 4, "patterns to select per compile")
		cRes     = fs.Int("C", 0, "resources per tile (0 = the paper's 5)")
		span     = fs.Int("span", 0, "antichain span limit (0 = the paper's span ≤ 1, -1 unlimited)")
		noCache  = fs.Bool("no-cache", false, "bypass the result cache (in-process target only): every request pays a full compile")
		codec    = fs.String("codec", "json", "wire codec against a remote daemon: json or binary")
		batch    = fs.Int("batch", 1, "coalesce up to N compiles per /v1/batch envelope (remote target only; 1 = plain /v1/compile)")
		seed     = fs.Int64("seed", 1, "arrival-schedule seed (open loop)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request timeout against a remote daemon")
		out      = fs.String("out", "", "write the JSON report here (empty = stdout)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the storm here (pprof format)")
		name     = fs.String("name", "", "result name (default loadgen/<scenario>/<mode>)")
		strict   = fs.Bool("strict", false, "exit 1 on any hard failure or an empty latency histogram (the CI gate)")
		resil    = fs.Bool("resilience", false, "wrap the remote client in the default resilience stack (retries, hedging, breakers) — the chaos-gate configuration")

		backends  = fs.Int("backends", 0, "spawn N local backend daemons behind an in-process router and storm that fleet (the 1→N scaling measurement)")
		procs     = fs.Int("backend-procs", 1, "GOMAXPROCS of each spawned fleet backend")
		killAfter = fs.Duration("kill-backend-after", 0, "SIGKILL one fleet backend this long into the storm (0 = never) — the rebalance chaos gate")
		fleetOut  = fs.String("fleet-metrics-out", "", "dump the router's /metrics text here after a fleet storm")
		serveAddr = fs.String("serve-backend", "", "internal: run as a fleet backend daemon on this address instead of storming")

		restartAfter = fs.Duration("restart-after", 0, "warm-restart storm: storm a self-spawned persistent backend for this long, restart it over the same store, storm again for -duration (see scripts/benchcheck -restart-hit-floor)")
		storeDir     = fs.String("store-dir", "", "persistent result-store directory for -restart-after and -serve-backend (empty = temp dir / memory only)")
		storeMax     = fs.Int64("store-max-bytes", 0, "on-disk result store size bound for -store-dir (0 = default)")
	)
	if code, done := cliutil.ParseFlags(fs, argv); done {
		return code
	}
	if *serveAddr != "" {
		return runBackend(*serveAddr, *storeDir, *storeMax, stdout, stderr)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mpschedbench:", err)
		return 1
	}

	m, err := loadgen.ParseMode(*mode)
	if err != nil {
		return fail(err)
	}
	arr, err := loadgen.ParseArrival(*arrivals)
	if err != nil {
		return fail(err)
	}
	sc, err := loadgen.ParseScenario(*scenario)
	if err != nil {
		return fail(err)
	}
	items, err := sc.Resolve(patsel.Config{Pdef: *pdef, C: *cRes, MaxSpan: *span})
	if err != nil {
		return fail(err)
	}
	if *noCache && (*addr != "" || *backends > 0) {
		return fail(fmt.Errorf("-no-cache only applies to the in-process target"))
	}
	wc, ok := wire.ByName(*codec)
	if !ok {
		return fail(fmt.Errorf("unknown codec %q (have json, binary)", *codec))
	}
	if *addr == "" && *backends == 0 && *restartAfter == 0 && wc != wire.JSON {
		return fail(fmt.Errorf("-codec only applies to a remote daemon (-addr)"))
	}
	if *addr == "" && *backends == 0 && *batch > 1 {
		return fail(fmt.Errorf("-batch only applies to a remote daemon (-addr)"))
	}
	if *batch < 1 {
		return fail(fmt.Errorf("-batch must be at least 1"))
	}
	if *backends < 0 {
		return fail(fmt.Errorf("-backends must be non-negative"))
	}
	if *backends > 0 && *addr != "" {
		return fail(fmt.Errorf("-backends spawns its own fleet; it cannot be combined with -addr"))
	}
	if *backends == 0 && (*killAfter > 0 || *fleetOut != "" || *procs != 1) {
		return fail(fmt.Errorf("-kill-backend-after, -fleet-metrics-out and -backend-procs only apply to a fleet storm (-backends N)"))
	}
	if *resil && *addr == "" && *backends == 0 {
		return fail(fmt.Errorf("-resilience only applies to a remote daemon (-addr)"))
	}
	if *restartAfter > 0 && (*addr != "" || *backends > 0) {
		return fail(fmt.Errorf("-restart-after drives its own target; it cannot be combined with -addr or -backends"))
	}

	if *restartAfter > 0 {
		rs := &restartStorm{
			storeDir: *storeDir,
			storeMax: *storeMax,
			phase1:   *restartAfter,
			codec:    wc,
			timeout:  *timeout,
			items:    items,
			cfg: loadgen.Config{
				Scenario: sc.Spec,
				Mode:     m,
				Clients:  *clients,
				RPS:      *rps,
				Arrival:  arr,
				Duration: *duration,
				Seed:     *seed,
			},
			label:  *name,
			out:    *out,
			strict: *strict,
			stdout: stdout,
			stderr: stderr,
		}
		return rs.run()
	}

	var harness *fleetHarness
	if *backends > 0 {
		h, err := startFleet(*backends, *procs, wc, stderr)
		if err != nil {
			return fail(fmt.Errorf("fleet: %w", err))
		}
		defer h.Close()
		harness = h
		*addr = h.URL
	}

	var target loadgen.Target
	var remote *client.Client
	if *addr != "" {
		c := client.New(*addr).WithCodec(wc).WithTimeout(*timeout)
		if *resil {
			c = c.WithResilience(client.DefaultResilience())
		}
		if _, err := c.Healthz(context.Background()); err != nil {
			return fail(fmt.Errorf("daemon at %s not healthy: %w", *addr, err))
		}
		remote = c
		if *batch > 1 {
			// Enough dispatchers that one slow envelope never idles the
			// storm's clients.
			bt := loadgen.NewBatchTarget(c, *batch, 2*max(1, *clients / *batch))
			defer bt.Close()
			target = bt
		} else {
			target = loadgen.NewRemoteTarget(c)
		}
	} else {
		target = loadgen.NewLocalTarget(pipeline.Options{}, *noCache)
	}

	cfg := loadgen.Config{
		Scenario: sc.Spec,
		Mode:     m,
		Clients:  *clients,
		RPS:      *rps,
		Arrival:  arr,
		Duration: *duration,
		Seed:     *seed,
	}
	fmt.Fprintf(stderr, "mpschedbench: %s storm of %q (%d members) against %s for %s\n",
		cfg.Mode, sc.Spec, len(items), target.Name(), *duration)
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if harness != nil && *killAfter > 0 {
		killTimer := time.AfterFunc(*killAfter, harness.killBackend)
		defer killTimer.Stop()
	}
	// Bracket the storm with /metrics scrapes so the report carries the
	// daemon's own view of exactly this run (a counter delta, immune to
	// whatever the daemon did before). A failed scrape degrades to a
	// client-only report rather than failing the bench. In fleet mode the
	// target is the router, whose surface is mpschedrouter_* — the
	// mpschedd_* delta would be vacuously zero, so skip it.
	var before obs.Metrics
	if remote != nil && harness == nil {
		if before, err = remote.Metrics(context.Background()); err != nil {
			fmt.Fprintf(stderr, "mpschedbench: warning: pre-run /metrics scrape failed: %v\n", err)
			before = nil
		} else if _, ok := before.Value("mpschedd_compiles_total"); !ok {
			// -addr points at something that is not an mpschedd (a router,
			// say): there is no server-side compile story to bracket.
			before = nil
		}
	}
	res, err := loadgen.Run(context.Background(), target, items, cfg)
	if err != nil {
		return fail(err)
	}
	var srvStats *benchfmt.ServerStats
	if before != nil {
		if after, err := remote.Metrics(context.Background()); err != nil {
			fmt.Fprintf(stderr, "mpschedbench: warning: post-run /metrics scrape failed: %v\n", err)
		} else {
			srvStats = serverDelta(before, after, res.Elapsed)
		}
	}
	if harness != nil && *fleetOut != "" {
		if err := harness.dumpMetrics(*fleetOut); err != nil {
			return fail(fmt.Errorf("fleet metrics dump: %w", err))
		}
	}

	label := *name
	if label == "" {
		label = fmt.Sprintf("loadgen/%s/%s", sc.Spec, cfg.Mode)
	}
	report := benchfmt.NewReport()
	br := toBenchResult(label, res)
	br.Server = srvStats
	report.Results = append(report.Results, br)

	if err := writeReport(&report, *out, stdout); err != nil {
		return fail(err)
	}

	fmt.Fprintf(stderr,
		"mpschedbench: %d requests in %.1fs: %.1f compiles/s, p50 %s p90 %s p99 %s p999 %s, %d errors, %d rejected, cache %.0f%%\n",
		res.Requests, res.Elapsed.Seconds(), res.Throughput,
		res.Hist.Quantile(0.50), res.Hist.Quantile(0.90), res.Hist.Quantile(0.99), res.Hist.Quantile(0.999),
		res.Errors, res.Rejected, 100*res.CacheHitRatio())
	if srvStats != nil {
		fmt.Fprintf(stderr,
			"mpschedbench: server: %d compiles (%d errors), %.1f jobs/s, cache %.0f%%, %d rejected at admission\n",
			srvStats.Compiles, srvStats.CompileErrors, srvStats.JobsPerSec,
			100*srvStats.CacheHitRatio, srvStats.QueueRejected)
	}
	if *resil {
		rs := remote.ResilienceStats()
		fmt.Fprintf(stderr,
			"mpschedbench: resilience: %d retries, %d hedges (%d wins), %d breaker trips, %d fast fails\n",
			rs.Retries, rs.Hedges, rs.HedgeWins, rs.BreakerTrips, rs.BreakerFastFails)
	}
	for _, s := range res.ErrorSamples {
		fmt.Fprintf(stderr, "mpschedbench: sample error: %s\n", s)
	}

	if *strict {
		if res.Errors > 0 {
			fmt.Fprintf(stderr, "mpschedbench: strict: %d hard failures\n", res.Errors)
			return 1
		}
		if res.Hist.Count() == 0 {
			fmt.Fprintln(stderr, "mpschedbench: strict: empty latency histogram")
			return 1
		}
	}
	return 0
}

// writeReport writes the report to path, or indented to stdout when
// path is empty.
func writeReport(report *benchfmt.Report, path string, stdout io.Writer) error {
	if path == "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	return report.WriteFile(path)
}

// serverDelta folds a before/after pair of /metrics scrapes into the
// daemon-side stats for one run. Rates use the client-measured wall
// clock, so client and server jobs/s are directly comparable.
func serverDelta(before, after obs.Metrics, elapsed time.Duration) *benchfmt.ServerStats {
	delta := func(name string) int64 {
		b, _ := before.Value(name)
		a, _ := after.Value(name)
		return int64(a - b)
	}
	s := &benchfmt.ServerStats{
		Compiles:      delta("mpschedd_compiles_total"),
		CompileErrors: delta("mpschedd_compile_errors_total"),
		CacheHits:     delta("mpschedd_cache_hits_total"),
		CacheMisses:   delta("mpschedd_cache_misses_total"),
		QueueRejected: delta("mpschedd_jobs_rejected_total") + delta("mpschedd_batch_rejected_total"),
	}
	if ok := s.Compiles - s.CompileErrors; ok > 0 && elapsed > 0 {
		s.JobsPerSec = float64(ok) / elapsed.Seconds()
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(lookups)
	}
	return s
}

// toBenchResult maps a load Result onto the shared benchmark schema:
// ns_per_op is the mean latency, jobs_per_sec the successful throughput,
// and the quantile/counter extensions carry the load-specific profile.
func toBenchResult(name string, res *loadgen.Result) benchfmt.Result {
	return benchfmt.Result{
		Name:          name,
		Iterations:    int(res.Requests),
		NsPerOp:       float64(res.Hist.Mean()),
		JobsPerSec:    res.Throughput,
		P50Ns:         float64(res.Hist.Quantile(0.50)),
		P90Ns:         float64(res.Hist.Quantile(0.90)),
		P99Ns:         float64(res.Hist.Quantile(0.99)),
		P999Ns:        float64(res.Hist.Quantile(0.999)),
		Requests:      res.Requests,
		Errors:        res.Errors,
		Rejected:      res.Rejected,
		CacheHitRatio: res.CacheHitRatio(),
	}
}
