// Command mpsched schedules data-flow graphs onto a pattern-limited
// reconfigurable tile — the paper's multi-pattern list scheduling — with
// either an explicit pattern set or patterns chosen by the selection
// algorithm. Single-graph mode compiles one workload; batch mode reads a
// manifest of workloads and compiles them concurrently through the
// pipeline engine with result caching.
//
// Usage:
//
//	mpsched -gen 3dft -patterns "aabcc aaacc" -trace    # Table 2
//	mpsched -gen ndft:5 -select -pdef 4                 # selection + schedule
//	mpsched -in graph.json -patterns "{a,b,c}" -tie asc
//	mpsched -batch fleet.txt -jobs 8 -rounds 2          # concurrent batch
//
// A manifest is line oriented: each non-comment line names a workload
// (generator spec or graph file) followed by optional key=value overrides
// of the selection flags, e.g.
//
//	3dft
//	ndft:4 pdef=3
//	fir:8,4 c=5 span=2 name=fir-wide
//	matmul:3 spans=0,1,2
//	designs/my-graph.json pdef=2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/pipeline"
	"mpsched/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed command line shared by both modes.
type config struct {
	gen, inFile string
	patterns    string
	doSelect    bool
	pdef, c     int
	span        int
	priority    string
	tie         string
	seed        int64
	trace       bool

	batch  string
	jobs   int
	rounds int
}

// run is the command body, factored out of main so tests can drive it.
// It returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.gen, "gen", "", "workload (3dft, fig4, ndft:N, fft:N, fir:T,B, matmul:N, butterfly:S, random:..., chain:..., wide:...)")
	fs.StringVar(&cfg.inFile, "in", "", "graph JSON file")
	fs.StringVar(&cfg.patterns, "patterns", "", "explicit pattern set, e.g. \"aabcc aaacc\"")
	fs.BoolVar(&cfg.doSelect, "select", false, "choose patterns with the selection algorithm")
	fs.IntVar(&cfg.pdef, "pdef", 4, "patterns to select (with -select; batch default)")
	fs.IntVar(&cfg.c, "C", 5, "resources per tile")
	fs.IntVar(&cfg.span, "span", 1, "span limit for selection (-1 unlimited)")
	fs.StringVar(&cfg.priority, "priority", "F2", "pattern priority: F1 (count) or F2 (priority sum)")
	fs.StringVar(&cfg.tie, "tie", "desc", "tie-break: desc, asc, stable, random")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for -tie random")
	fs.BoolVar(&cfg.trace, "trace", false, "print the per-cycle decision trace (Table 2 style)")
	fs.StringVar(&cfg.batch, "batch", "", "manifest file: compile many workloads through the pipeline")
	fs.IntVar(&cfg.jobs, "jobs", 0, "batch worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.rounds, "rounds", 1, "times to run the batch (later rounds hit the cache)")
	if code, done := cliutil.ParseFlags(fs, argv); done {
		return code
	}

	var err error
	if cfg.batch != "" {
		err = runBatch(cfg, stdout)
	} else {
		err = runSingle(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mpsched:", err)
		return 1
	}
	return 0
}

// runSingle is the one-graph flow, routed through the staged Compiler:
// explicit patterns skip census and selection, -select runs the paper's
// algorithm, and both stop after scheduling.
func runSingle(cfg config, stdout io.Writer) error {
	g, err := cliutil.LoadGraph(cfg.gen, cfg.inFile)
	if err != nil {
		return err
	}
	opts, err := schedOptions(cfg)
	if err != nil {
		return err
	}

	specOpts := []pipeline.SpecOption{
		pipeline.WithSchedule(opts),
		pipeline.WithStopAfter(pipeline.StageSchedule),
	}
	switch {
	case cfg.patterns != "" && cfg.doSelect:
		return fmt.Errorf("use either -patterns or -select")
	case cfg.patterns != "":
		ps, err := pattern.ParseSet(cfg.patterns)
		if err != nil {
			return err
		}
		specOpts = append(specOpts, pipeline.WithPatterns(ps))
	case cfg.doSelect:
		specOpts = append(specOpts,
			pipeline.WithSelect(patsel.Config{C: cfg.c, Pdef: cfg.pdef, MaxSpan: cfg.span}))
	default:
		return fmt.Errorf("provide -patterns, -select or -batch")
	}

	rep, err := pipeline.NewCompiler(pipeline.Options{}).
		Compile(context.Background(), pipeline.NewSpec(g, specOpts...))
	if err != nil {
		return err
	}
	if rep.Selection != nil {
		fmt.Fprintf(stdout, "selected patterns: %s\n", rep.Selection.Patterns)
	}
	s := rep.Schedule
	if cfg.trace {
		fmt.Fprint(stdout, s.RenderTrace())
	}
	fmt.Fprint(stdout, s.Render())
	lb, err := sched.LowerBound(g, s.Patterns)
	if err == nil {
		fmt.Fprintf(stdout, "lower bound: %d cycles; utilisation %.0f%%\n", lb, 100*s.Utilization())
	}
	return nil
}

func schedOptions(cfg config) (sched.Options, error) {
	opts := sched.Options{KeepTrace: cfg.trace, Seed: cfg.seed}
	prio, err := cliutil.ParsePriority(cfg.priority)
	if err != nil {
		return opts, err
	}
	opts.Priority = prio
	tb, err := cliutil.ParseTieBreak(cfg.tie)
	if err != nil {
		return opts, err
	}
	opts.TieBreak = tb
	return opts, nil
}

// runBatch reads the manifest, compiles every workload through the
// compiler (cfg.rounds times over a shared cache), and prints a results
// table per round. Any failed job makes the command exit nonzero after
// the full batch has run.
func runBatch(cfg config, stdout io.Writer) error {
	jobs, err := loadManifest(cfg)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("manifest %s has no workloads", cfg.batch)
	}

	cache := pipeline.NewShardedCache(0, 1)
	c := pipeline.NewCompiler(pipeline.Options{Cache: cache})
	failures := 0
	for round := 1; round <= cfg.rounds; round++ {
		if cfg.rounds > 1 {
			fmt.Fprintf(stdout, "round %d/%d\n", round, cfg.rounds)
		}
		reps, errs := c.CompileAll(context.Background(), jobs, cfg.jobs)
		failures += printResults(stdout, jobs, reps, errs)
		fmt.Fprintln(stdout, cache.Stats())
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d jobs failed", failures, len(jobs)*cfg.rounds)
	}
	return nil
}

// loadManifest parses the batch file into compile specs, using the
// command line flags as per-job defaults.
func loadManifest(cfg config) ([]pipeline.Spec, error) {
	data, err := os.ReadFile(cfg.batch)
	if err != nil {
		return nil, err
	}
	var jobs []pipeline.Spec
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		job, err := parseManifestLine(line, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", cfg.batch, lineNo+1, err)
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// parseManifestLine reads "spec [key=value ...]" into a compile spec. The
// spec is a graph file when it looks like a path (contains a slash or a
// *.json/*.txt extension), a generator spec otherwise.
func parseManifestLine(line string, cfg config) (pipeline.Spec, error) {
	fields := strings.Fields(line)
	spec := fields[0]
	job := pipeline.Spec{
		Name:   spec,
		Select: patsel.Config{C: cfg.c, Pdef: cfg.pdef, MaxSpan: cfg.span},
	}
	var err error
	if job.Sched, err = schedOptions(cfg); err != nil {
		return job, err
	}
	job.Sched.KeepTrace = false // traces are for single-graph mode

	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return job, fmt.Errorf("bad option %q (want key=value)", kv)
		}
		switch key {
		case "name":
			job.Name = val
		case "pdef":
			job.Select.Pdef, err = strconv.Atoi(val)
		case "c":
			job.Select.C, err = strconv.Atoi(val)
		case "span":
			job.Select.MaxSpan, err = strconv.Atoi(val)
		case "priority":
			job.Sched.Priority, err = cliutil.ParsePriority(val)
		case "tie":
			job.Sched.TieBreak, err = cliutil.ParseTieBreak(val)
		case "seed":
			job.Sched.Seed, err = strconv.ParseInt(val, 10, 64)
		case "spans":
			job.Spans, err = parseSpans(val)
		default:
			return job, fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return job, fmt.Errorf("option %q: %w", kv, err)
		}
	}

	if isGraphFile(spec) {
		job.Graph, err = cliutil.LoadGraph("", spec)
	} else {
		job.Graph, err = cliutil.Generate(spec)
	}
	if err != nil {
		return job, err
	}
	return job, nil
}

// parseSpans reads a comma-separated span-sweep list ("0,1,2").
func parseSpans(val string) ([]int, error) {
	var spans []int
	for _, f := range strings.Split(val, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad span %q", f)
		}
		spans = append(spans, n)
	}
	return spans, nil
}

func isGraphFile(spec string) bool {
	return strings.ContainsRune(spec, '/') ||
		strings.HasSuffix(spec, ".json") || strings.HasSuffix(spec, ".txt")
}

// printResults renders the per-job table and returns the failure count.
// A failed compile has no report, so its row has no timing.
func printResults(w io.Writer, jobs []pipeline.Spec, reps []*pipeline.Report, errs []error) int {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\tnodes\tpatterns\tcycles\tlb\tutil\tcache\tms\tstatus")
	failures := 0
	for i, r := range reps {
		if errs[i] != nil {
			failures++
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t-\terror: %v\n",
				jobs[i].Label(), nodeCount(jobs[i].Graph), errs[i])
			continue
		}
		lb := "-"
		if v, err := sched.LowerBound(r.Graph, r.Schedule.Patterns); err == nil {
			lb = strconv.Itoa(v)
		}
		cacheMark := ""
		if r.CacheHit {
			cacheMark = "hit"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\t%.0f%%\t%s\t%.1f\tok\n",
			r.Name, r.Graph.N(), patternList(r.Schedule),
			r.Schedule.Length(), lb, 100*r.Schedule.Utilization(),
			cacheMark, r.Elapsed.Seconds()*1e3)
	}
	tw.Flush()
	return failures
}

func nodeCount(g *dfg.Graph) string {
	if g == nil {
		return "-"
	}
	return strconv.Itoa(g.N())
}

// patternList renders the schedule's pattern set compactly, sorted for
// stable output.
func patternList(s *sched.Schedule) string {
	var parts []string
	for _, p := range s.Patterns.Patterns() {
		parts = append(parts, p.Compact())
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
