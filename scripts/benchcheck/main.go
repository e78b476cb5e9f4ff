// Command benchcheck is the CI perf gate: it validates BENCH_*.json
// artifacts (the internal/benchfmt schema) and compares them against a
// checked-in baseline with a generous tolerance, replacing the inline
// python3 JSON assertion the workflow used to carry — CI has no Python
// dependency left.
//
// Usage:
//
//	go run ./scripts/benchcheck -current /tmp/bench.json \
//	    [-baseline BENCH_enumeration.json] [-tol 3.0] \
//	    [-require Enumerate/3dft] [-loadgen loadgen/ci-smoke] \
//	    [-scale 'loadgen/fleet-1x;loadgen/fleet-2x;1.7'] \
//	    [-cache-floor 0.9] [-router-metrics /tmp/router-metrics.txt] \
//	    [-metrics /tmp/metrics.txt] [-traces /tmp/traces.json]
//
// Checks, in order:
//
//   - -current must parse as a benchfmt report with ≥ 1 result, every
//     result named and non-negative; a comma-separated list of files is
//     merged into one report, so a multi-step job (a fleet scaling
//     ladder) gates as a unit. (-current may be omitted when only the
//     observability checks below are requested.)
//   - Each -scale 'from;to;min' (repeatable; semicolons because result
//     names contain commas) asserts jobs_per_sec of result "to" is at
//     least min × that of result "from" — the fleet scaling gate.
//   - With -cache-floor f, every load result (requests > 0) must report
//     cache_hit_ratio ≥ f — routing stayed affine to the key space.
//   - -router-metrics: a saved router GET /metrics body must parse, every
//     mpschedrouter_backend_up sample must be 0 or 1, and the fleet must
//     have forwarded at least one request.
//   - With -baseline: for every benchmark name present in both files,
//     current ns_per_op, allocs_per_op and bytes_per_op must be ≤ tol ×
//     baseline
//     (results only in one file are ignored — smoke runs measure a
//     subset). At least one name must overlap. Baseline entries with
//     requests > 0 are load results and gate the other way around:
//     jobs_per_sec is a floor (current ≥ baseline ÷ tol — a throughput
//     collapse fails) and p99_ns a ceiling (current ≤ tol × baseline).
//   - Each -require name (repeatable) must exist in -current.
//   - The -loadgen name must exist with requests > 0, jobs_per_sec > 0,
//     p50/p99 > 0 and errors == 0 — the load-smoke contract: any
//     non-2xx/non-429 response or an empty histogram fails the gate.
//   - -metrics: a saved GET /metrics body must parse cleanly as
//     Prometheus text and be internally consistent — for every route,
//     mpschedd_requests_total{route} ≥ the summed
//     mpschedd_request_seconds_count over that route's codecs (requests
//     are counted before their latency is recorded, never after).
//   - -traces: a saved GET /debug/traces body must hold ≥ 1 trace, and
//     every trace must be terminal — an id, an HTTP status in
//     [100, 599], a positive duration and at least one span.
//
// Exit code 0 when every check passes, 1 otherwise, with one line per
// comparison so a CI log shows what moved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mpsched/internal/benchfmt"
	"mpsched/internal/cliutil"
	"mpsched/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// repeatable collects a repeatable string flag.
type repeatable []string

func (r *repeatable) String() string { return fmt.Sprint(*r) }
func (r *repeatable) Set(s string) error {
	*r = append(*r, s)
	return nil
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		current      = fs.String("current", "", "bench JSON to validate, comma-separated files merged (required unless only -metrics/-traces/-router-metrics)")
		baseline     = fs.String("baseline", "", "checked-in baseline to compare against")
		tol          = fs.Float64("tol", 3.0, "regression tolerance: current must be <= tol x baseline")
		loadgen      = fs.String("loadgen", "", "name of a load-test result that must be healthy")
		metricsIn    = fs.String("metrics", "", "saved GET /metrics body to check for internal consistency")
		tracesIn     = fs.String("traces", "", "saved GET /debug/traces body whose traces must all be terminal")
		cacheFloor   = fs.Float64("cache-floor", 0, "minimum cache_hit_ratio for every load result in -current (0 = off)")
		restartFloor = fs.Float64("restart-hit-floor", 0, "minimum warm_restart_hit_ratio as a fraction of pre_restart_hit_ratio for every restart-storm result in -current (0 = off)")
		routerIn     = fs.String("router-metrics", "", "saved router GET /metrics body to check (mpschedrouter_* surface)")
		require      repeatable
		scale        repeatable
	)
	fs.Var(&require, "require", "result name that must exist in -current (repeatable)")
	fs.Var(&scale, "scale", "throughput scaling gate 'from;to;min': jobs_per_sec(to) must be >= min x jobs_per_sec(from) (repeatable)")
	if code, done := cliutil.ParseFlags(fs, argv); done {
		return code
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchcheck: FAIL: "+format+"\n", args...)
		return 1
	}
	if *current == "" && *metricsIn == "" && *tracesIn == "" && *routerIn == "" {
		return fail("-current is required")
	}
	if *tol <= 0 {
		return fail("-tol must be positive, got %g", *tol)
	}

	bad := 0
	var cur *benchfmt.Report
	if *current != "" {
		for _, path := range strings.Split(*current, ",") {
			rep, err := benchfmt.ReadFile(strings.TrimSpace(path))
			if err != nil {
				return fail("%v", err)
			}
			if cur == nil {
				cur = rep
			} else {
				cur.Results = append(cur.Results, rep.Results...)
			}
		}
		if len(cur.Results) == 0 {
			return fail("%s has no results", *current)
		}
		for _, r := range cur.Results {
			if r.Name == "" {
				return fail("%s contains an unnamed result", *current)
			}
			if r.NsPerOp < 0 || r.AllocsPerOp < 0 || r.BytesPerOp < 0 || r.JobsPerSec < 0 {
				return fail("result %q has negative measurements", r.Name)
			}
		}
		fmt.Fprintf(stdout, "benchcheck: %s: %d results, schema ok\n", *current, len(cur.Results))
	} else if *baseline != "" || *loadgen != "" || len(require) > 0 || len(scale) > 0 || *cacheFloor > 0 || *restartFloor > 0 {
		return fail("-baseline/-require/-loadgen/-scale/-cache-floor/-restart-hit-floor need -current")
	}
	if *baseline != "" {
		base, err := benchfmt.ReadFile(*baseline)
		if err != nil {
			return fail("%v", err)
		}
		overlap := 0
		for _, b := range base.Results {
			c := cur.Find(b.Name)
			if c == nil {
				continue // smoke runs measure a subset of the baseline
			}
			overlap++
			if b.Requests > 0 {
				// A load result: throughput must not collapse, tail latency
				// must not blow up. Mean ns/op is implied by those two and
				// alloc counts are not measured by the load generator.
				bad += compareFloor(stdout, b.Name, "jobs/sec", c.JobsPerSec, b.JobsPerSec, *tol)
				bad += compare(stdout, b.Name, "p99_ns", c.P99Ns, b.P99Ns, *tol)
				continue
			}
			bad += compare(stdout, b.Name, "ns/op", c.NsPerOp, b.NsPerOp, *tol)
			bad += compare(stdout, b.Name, "allocs/op", float64(c.AllocsPerOp), float64(b.AllocsPerOp), *tol)
			bad += compare(stdout, b.Name, "bytes/op", float64(c.BytesPerOp), float64(b.BytesPerOp), *tol)
		}
		if overlap == 0 {
			return fail("no benchmark name overlaps between %s and %s", *current, *baseline)
		}
	}

	for _, name := range require {
		if cur.Find(name) == nil {
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL %-40s missing from %s\n", name, *current)
		}
	}

	if *loadgen != "" {
		r := cur.Find(*loadgen)
		switch {
		case r == nil:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL %-40s load result missing\n", *loadgen)
		case r.Requests <= 0:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL %-40s issued no requests\n", *loadgen)
		case r.Errors > 0:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL %-40s %d non-2xx/non-429 responses\n", *loadgen, r.Errors)
		case r.JobsPerSec <= 0:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL %-40s zero throughput\n", *loadgen)
		case r.P50Ns <= 0 || r.P99Ns <= 0:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL %-40s empty latency histogram (p50=%g p99=%g)\n", *loadgen, r.P50Ns, r.P99Ns)
		default:
			fmt.Fprintf(stdout, "benchcheck: ok   %-40s %.0f compiles/s, p50 %.3fms p99 %.3fms, %d rejected\n",
				*loadgen, r.JobsPerSec, r.P50Ns/1e6, r.P99Ns/1e6, r.Rejected)
		}
	}

	for _, spec := range scale {
		parts := strings.Split(spec, ";")
		if len(parts) != 3 {
			return fail("-scale %q: want 'from;to;min'", spec)
		}
		min, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil || min <= 0 {
			return fail("-scale %q: bad minimum ratio %q", spec, parts[2])
		}
		from, to := cur.Find(strings.TrimSpace(parts[0])), cur.Find(strings.TrimSpace(parts[1]))
		switch {
		case from == nil || to == nil:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL scale %q: result missing from -current\n", spec)
		case from.JobsPerSec <= 0:
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL scale %q: base result has no throughput\n", spec)
		default:
			ratio := to.JobsPerSec / from.JobsPerSec
			status, verdict := "ok  ", 0
			if ratio < min {
				status, verdict = "FAIL", 1
			}
			bad += verdict
			fmt.Fprintf(stdout, "benchcheck: %s scale %-50s %.0f → %.0f jobs/s (%.2fx, floor %.2fx)\n",
				status, parts[0]+" → "+parts[1], from.JobsPerSec, to.JobsPerSec, ratio, min)
		}
	}

	if *cacheFloor > 0 {
		for _, r := range cur.Results {
			if r.Requests <= 0 {
				continue
			}
			if r.CacheHitRatio < *cacheFloor {
				bad++
				fmt.Fprintf(stdout, "benchcheck: FAIL %-40s cache hit ratio %.2f below floor %.2f\n",
					r.Name, r.CacheHitRatio, *cacheFloor)
			} else {
				fmt.Fprintf(stdout, "benchcheck: ok   %-40s cache hit ratio %.2f (floor %.2f)\n",
					r.Name, r.CacheHitRatio, *cacheFloor)
			}
		}
	}

	if *restartFloor > 0 {
		// The warm-restart gate: after the daemon restarted over its
		// persistent store, the cache hit ratio must hold at restartFloor ×
		// its pre-restart level — the store actually fed the new process.
		gated := 0
		for _, r := range cur.Results {
			if r.PreRestartHitRatio <= 0 {
				continue
			}
			gated++
			floor := *restartFloor * r.PreRestartHitRatio
			if r.WarmRestartHitRatio < floor {
				bad++
				fmt.Fprintf(stdout, "benchcheck: FAIL %-40s warm hit ratio %.3f below %.3f (%.2f x pre-restart %.3f)\n",
					r.Name, r.WarmRestartHitRatio, floor, *restartFloor, r.PreRestartHitRatio)
			} else {
				fmt.Fprintf(stdout, "benchcheck: ok   %-40s warm hit ratio %.3f (floor %.3f = %.2f x pre-restart %.3f)\n",
					r.Name, r.WarmRestartHitRatio, floor, *restartFloor, r.PreRestartHitRatio)
			}
		}
		if gated == 0 {
			bad++
			fmt.Fprintf(stdout, "benchcheck: FAIL no restart-storm result (pre_restart_hit_ratio > 0) in %s\n", *current)
		}
	}

	if *routerIn != "" {
		n, err := checkRouterMetrics(stdout, *routerIn)
		if err != nil {
			return fail("%v", err)
		}
		bad += n
	}

	if *metricsIn != "" {
		n, err := checkMetrics(stdout, *metricsIn)
		if err != nil {
			return fail("%v", err)
		}
		bad += n
	}
	if *tracesIn != "" {
		n, err := checkTraces(stdout, *tracesIn)
		if err != nil {
			return fail("%v", err)
		}
		bad += n
	}

	if bad > 0 {
		return fail("%d check(s) failed", bad)
	}
	fmt.Fprintln(stdout, "benchcheck: all checks passed")
	return 0
}

// checkRouterMetrics parses a saved router /metrics body and asserts the
// fleet surface is sane: the backend_up gauge exists with one strictly
// boolean sample per backend, and the router forwarded at least one
// request during the run that produced the scrape.
func checkRouterMetrics(w io.Writer, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	m, err := obs.ParseMetrics(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	bad := 0
	upSamples := 0
	for _, s := range m {
		if s.Name != "mpschedrouter_backend_up" {
			continue
		}
		upSamples++
		if s.Value != 0 && s.Value != 1 {
			bad++
			fmt.Fprintf(w, "benchcheck: FAIL backend_up{backend=%q} = %g, want 0 or 1\n", s.Labels["backend"], s.Value)
		}
	}
	if upSamples == 0 {
		bad++
		fmt.Fprintf(w, "benchcheck: FAIL %s: no mpschedrouter_backend_up samples\n", path)
	}
	if fwd := m.Sum("mpschedrouter_forwarded_total"); fwd <= 0 {
		bad++
		fmt.Fprintf(w, "benchcheck: FAIL %s: router forwarded nothing (forwarded_total = %g)\n", path, fwd)
	}
	fmt.Fprintf(w, "benchcheck: %s: %d backends on the router surface\n", path, upSamples)
	return bad, nil
}

// checkMetrics parses a saved /metrics body and asserts the scrape-time
// invariant the server maintains: requests are counted before their
// latency is recorded, so for every route the request counter is at
// least the summed latency-histogram counts across that route's codecs.
// Returns the number of failed checks; the error covers an unreadable
// or malformed file (always fatal — a scrape the parser rejects means
// the exposition itself broke under load).
func checkMetrics(w io.Writer, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	m, err := obs.ParseMetrics(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return 0, fmt.Errorf("%s: no samples", path)
	}
	totals := map[string]float64{}   // route → requests_total
	observed := map[string]float64{} // route → Σ request_seconds_count
	for _, s := range m {
		switch s.Name {
		case "mpschedd_requests_total":
			totals[s.Labels["route"]] += s.Value
		case "mpschedd_request_seconds_count":
			observed[s.Labels["route"]] += s.Value
		}
	}
	bad := 0
	for route, obsCount := range observed {
		if total, ok := totals[route]; !ok || obsCount > total {
			bad++
			fmt.Fprintf(w, "benchcheck: FAIL %-40s request_seconds_count %g > requests_total %g\n", route, obsCount, totals[route])
		}
	}
	fmt.Fprintf(w, "benchcheck: %s: %d samples, %d routes consistent\n", path, len(m), len(observed)-bad)
	return bad, nil
}

// traceDump matches the GET /debug/traces body.
type traceDump struct {
	Traces []obs.TraceData `json:"traces"`
}

// checkTraces parses a saved /debug/traces body and asserts every
// recorded trace is terminal: it has an id, an HTTP status, a positive
// duration and at least one span (every traced route records at least
// its decode span, even on a request that fails immediately).
func checkTraces(w io.Writer, path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var dump traceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(dump.Traces) == 0 {
		return 0, fmt.Errorf("%s: no traces sampled under load", path)
	}
	bad := 0
	for _, t := range dump.Traces {
		switch {
		case t.ID == "":
			bad++
			fmt.Fprintf(w, "benchcheck: FAIL trace without an id (route %s)\n", t.Route)
		case t.Status < 100 || t.Status > 599:
			bad++
			fmt.Fprintf(w, "benchcheck: FAIL trace %s not terminal: status %d\n", t.ID, t.Status)
		case t.DurationMS <= 0:
			bad++
			fmt.Fprintf(w, "benchcheck: FAIL trace %s has non-positive duration %g ms\n", t.ID, t.DurationMS)
		case len(t.Spans) == 0:
			bad++
			fmt.Fprintf(w, "benchcheck: FAIL trace %s recorded no spans\n", t.ID)
		}
	}
	fmt.Fprintf(w, "benchcheck: %s: %d traces, %d terminal\n", path, len(dump.Traces), len(dump.Traces)-bad)
	return bad, nil
}

// compare prints one metric comparison and returns 1 when it regressed
// past tolerance. A zero baseline is skipped — nothing meaningful to
// gate on, and smoke iterations can legitimately round to zero.
func compare(w io.Writer, name, metric string, cur, base, tol float64) int {
	if base <= 0 {
		return 0
	}
	ratio := cur / base
	status := "ok  "
	verdict := 0
	if ratio > tol {
		status = "FAIL"
		verdict = 1
	}
	fmt.Fprintf(w, "benchcheck: %s %-40s %-10s %12.0f vs %12.0f (%.2fx, tol %.1fx)\n",
		status, name, metric, cur, base, ratio, tol)
	return verdict
}

// compareFloor is compare for bigger-is-better metrics (throughput):
// fail when current drops below baseline ÷ tol. A zero baseline is
// skipped for the same reason as in compare.
func compareFloor(w io.Writer, name, metric string, cur, base, tol float64) int {
	if base <= 0 {
		return 0
	}
	ratio := cur / base
	status := "ok  "
	verdict := 0
	if ratio < 1/tol {
		status = "FAIL"
		verdict = 1
	}
	fmt.Fprintf(w, "benchcheck: %s %-40s %-10s %12.0f vs %12.0f (%.2fx, floor %.2fx)\n",
		status, name, metric, cur, base, ratio, 1/tol)
	return verdict
}
