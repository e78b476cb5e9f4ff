// Command bench is the repository benchmark. It hosts the compile daemon
// (and, on mixed-fleet, the router over two daemons) in-process behind
// loopback listeners, drives them through the typed client with two
// closed-loop clients, checks every returned schedule, and prints every
// metric by name with its unit; the last line of its output is one JSON
// object with the run's metrics. Each workload runs in a fresh child
// process, so caches, heap and peak RSS never leak between workloads.
//
// Usage, from the repository root (bash bench/run.sh builds and runs it):
//
//	bench [-workload all|warm-json|warm-batch|cold-corpus|mixed-fleet]
//	      [-seed N] [-seconds S] [-trace[=0|1]] [-check]
//
// -trace prints the per-layer metrics instead of the end-to-end ones and
// writes the spans to bench/out/trace-<workload>.json. -check runs every
// selected workload twice and fails when an end-to-end metric moves by
// more than its bound. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Where a run writes, relative to the repository root it runs from.
const (
	tmpDir = ".bench_build/tmp"
	outDir = "bench/out"
)

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	only := fs.String("workload", "all", "all, or one of "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per run; warm-up adds a tenth of it, at most 2 s")
	trace := fs.Bool("trace", false, "report per-layer metrics from a traced run and write its spans")
	check := fs.Bool("check", false, "run each workload twice; fail if an end-to-end metric moves by more than its bound")
	child := fs.Bool("child", false, "run one workload in this process and print its raw result (the parent's protocol)")
	if err := fs.Parse(joinBoolValues(argv, "trace", "check")); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *check && *trace {
		fmt.Fprintln(stderr, "bench: -check compares end-to-end metrics; drop -trace")
		return 2
	}
	selected := workloads
	if *only != "all" {
		w := workloadByName(*only)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want all or one of %s)\n", *only, strings.Join(names, ", "))
			return 2
		}
		selected = []*workload{w}
	}

	if *child {
		if len(selected) != 1 {
			fmt.Fprintln(stderr, "bench: -child runs exactly one workload")
			return 2
		}
		cfg := runConfig{w: selected[0], seed: *seed, seconds: *seconds, trace: *trace, tmpDir: tmpDir, outDir: outDir}
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", selected[0].name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	runs := 1
	if *check {
		runs = 2
	}
	var results []*result
	for _, w := range selected {
		for i := 0; i < runs; i++ {
			res, err := spawn(w.name, *seed, *seconds, *trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, res)
			results = append(results, res)
		}
	}
	code := 0
	for _, r := range results {
		if r.Failed > 0 || !r.correct() {
			code = 1
		}
	}
	if *check {
		if !printCheck(stdout, results) {
			code = 1
		}
		return code
	}
	line, complete := summary(results, *trace)
	fmt.Fprintln(stdout, line)
	if !complete {
		fmt.Fprintln(stderr, "bench: some metrics had too few samples; run longer")
		code = 1
	}
	return code
}

// joinBoolValues rewrites "-flag 0|1|true|false" as "-flag=value" for the
// named bool flags: the flag package reads a bool flag's value only after
// "=", and callers pass it as a separate word.
func joinBoolValues(argv []string, flags ...string) []string {
	out := make([]string, 0, len(argv))
	for i := 0; i < len(argv); i++ {
		a := argv[i]
		name := strings.TrimLeft(a, "-")
		if a != name && i+1 < len(argv) && !strings.Contains(name, "=") {
			for _, f := range flags {
				if _, err := strconv.ParseBool(argv[i+1]); name == f && err == nil {
					a += "=" + argv[i+1]
					i++
					break
				}
			}
		}
		out = append(out, a)
	}
	return out
}

// spawn runs one workload in a fresh child process and returns its result.
func spawn(name string, seed int64, seconds float64, trace bool, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Set-up, warm-up and the replays of a traced run take well under two
	// minutes on top of the measured time.
	limit := time.Duration((2*seconds + 120) * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// printResult prints a run's metrics, one per line with its unit.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s  seed %d  %g s measured  %d clients  %s ==\n", r.Workload, r.Seed, r.Seconds, clients, kind)
	for _, m := range r.Metrics {
		v := "n/a"
		if !m.Missing {
			v = strconv.FormatFloat(m.Value, 'g', 6, 64)
		}
		fmt.Fprintf(w, "%-28s %12s %-10s %s\n", m.Name, v, m.Unit, m.Note)
	}
	errRate := ratio(float64(r.Failed), float64(r.Attempted))
	fmt.Fprintf(w, "%-28s %12s %-10s %d failed (%d rejected with 429, %d failed verification) of %d attempted\n",
		"error_rate", strconv.FormatFloat(errRate, 'g', 6, 64), "ratio", r.Failed, r.Rejected, r.VerifyFailed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
}

// summary is the closing JSON line: the run's end-to-end metrics, or its
// per-layer metrics on a traced run. With more than one workload each
// name is prefixed by its workload. complete is false when a metric is
// missing.
func summary(results []*result, trace bool) (line string, complete bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	complete = true
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range defs {
			m, ok := r.metric(d.name)
			if !ok {
				complete = false
				continue
			}
			key := d.name
			if len(results) > 1 {
				key = r.Workload + "." + d.name
			}
			out.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is a finite float: a bug if not
	}
	return string(data), complete
}

// printCheck compares the two runs of each workload: every end-to-end
// metric's relative gap against its bound. It reports whether all held.
func printCheck(w io.Writer, results []*result) bool {
	ok := true
	fmt.Fprintf(w, "== check: second run against the first ==\n")
	for i := 0; i+1 < len(results); i += 2 {
		a, b := results[i], results[i+1]
		for _, d := range endToEnd {
			ma, okA := a.metric(d.name)
			mb, okB := b.metric(d.name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-12s %-20s missing\n", a.Workload, d.name)
				ok = false
				continue
			}
			gap := 0.0
			if mb.Value != ma.Value {
				gap = math.Abs(mb.Value-ma.Value) / math.Abs(ma.Value)
			}
			verdict := "ok"
			if gap > d.bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-12s %-20s %12.6g %12.6g %-10s gap %6.2f%%  bound %5.1f%%  %s\n",
				a.Workload, d.name, ma.Value, mb.Value, d.unit, 100*gap, 100*d.bound, verdict)
		}
	}
	return ok
}
