// Package mpsched is a Go implementation of multi-pattern scheduling for
// coarse-grained reconfigurable architectures, reproducing Guo, Hoede and
// Smit, "A Pattern Selection Algorithm for Multi-Pattern Scheduling"
// (IPPS 2006) and the compiler flow around it.
//
// A reconfigurable tile (the Montium) executes one *pattern* — a bag of at
// most C operation colors — per clock cycle, and an application may use
// only Pdef distinct patterns. The paper's flow is a fixed pipeline —
// antichain census (§5.1) → pattern selection (§5.2) → multi-pattern
// scheduling (§4) → allocation — and the Compiler is the single way to run
// it: build a CompileSpec, get a CompileReport back.
//
//	c := mpsched.NewCompiler(mpsched.PipelineOptions{})
//	rep, _ := c.Compile(ctx, mpsched.NewCompileSpec(mpsched.ThreeDFT(),
//	        mpsched.WithSelect(mpsched.SelectConfig{C: 5, Pdef: 4})))
//	fmt.Println(rep.Schedule.Length(), "cycles in", rep.Elapsed)
//
// A spec can stop partway (select-only, census-only) and observe every
// stage — the partial compiles that previously required importing the
// internal packages:
//
//	rep, _ = c.Compile(ctx, mpsched.NewCompileSpec(g,
//	        mpsched.WithSelect(cfg),
//	        mpsched.WithStopAfter(mpsched.StageSelect),     // skip scheduling
//	        mpsched.WithStageHook(func(si mpsched.StageInfo) {
//	                log.Printf("%-8s %8v", si.Stage, si.Elapsed)
//	        })))
//	fmt.Println(rep.Selection.Patterns, rep.Census.Antichains)
//
// Specs also carry expression source (WithSourceOptions), span sweeps
// (WithSpans), architectures (WithArch → rep.Program) and per-spec cache
// policy (WithoutCache). The one-call helpers below (SelectPatterns,
// Schedule, Compile, ...) are thin shims over the same Compiler and remain
// the quickest path for scripts:
//
//	sel, _ := mpsched.SelectPatterns(g, mpsched.SelectConfig{C: 5, Pdef: 4})
//	s, _ := mpsched.Schedule(g, sel.Patterns, mpsched.SchedOptions{})
//
// The facade re-exports the library's layers; import the internal packages
// directly for the full surface:
//
//	internal/graph      DAG substrate (reachability, levels, DOT)
//	internal/dfg        data-flow graphs, builder, serialisation, eval
//	internal/pattern    pattern multiset algebra
//	internal/antichain  bounded-span antichain enumeration (§5.1)
//	internal/patsel     pattern selection (§5.2) + baselines + ablations
//	internal/sched      multi-pattern list scheduling (§4) + baselines
//	internal/transform  expression-language front end (compiler phase 1)
//	internal/cluster    clustering phase (compiler phase 2)
//	internal/alloc      ALU/register/memory allocation (compiler phase 4)
//	internal/montium    Montium tile model + cycle simulator
//	internal/workloads  paper graphs and workload generators
//	internal/expmt      paper-table reproduction harness
//	internal/pipeline   staged compiler, batch fan-out + result caches
//	internal/server     HTTP/JSON compile service (mpschedd core)
//	internal/server/client  typed client for the service
//	internal/cliutil    shared CLI helpers + workload catalog
package mpsched

import (
	"math/rand"

	"mpsched/internal/alloc"
	"mpsched/internal/antichain"
	"mpsched/internal/dfg"
	"mpsched/internal/montium"
	"mpsched/internal/obs"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/pipeline"
	"mpsched/internal/resilience"
	"mpsched/internal/sched"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/transform"
	"mpsched/internal/wire"
	"mpsched/internal/workloads"
)

// Core data types, aliased so the facade and the internal packages
// interoperate without conversions.
type (
	// Graph is a data-flow graph of colored operation nodes.
	Graph = dfg.Graph
	// Color is a node's function type (the paper's l(n)).
	Color = dfg.Color
	// GraphBuilder constructs graphs by node name.
	GraphBuilder = dfg.Builder
	// Pattern is a bag of colors one tile cycle can execute.
	Pattern = pattern.Pattern
	// PatternSet is an ordered set of distinct patterns.
	PatternSet = pattern.Set
	// ScheduleResult assigns every node a cycle and every cycle a pattern.
	ScheduleResult = sched.Schedule
	// SchedOptions configures the list scheduler.
	SchedOptions = sched.Options
	// SelectConfig parameterises pattern selection.
	SelectConfig = patsel.Config
	// Selection is the output of pattern selection.
	Selection = patsel.Selection
	// AntichainConfig bounds antichain enumeration.
	AntichainConfig = antichain.Config
	// AntichainResult is the census of enumerated antichains.
	AntichainResult = antichain.Result
	// Arch describes a reconfigurable tile.
	Arch = alloc.Arch
	// Program is an allocated schedule, executable on a Tile.
	Program = alloc.Program
	// Tile is the Montium hardware model.
	Tile = montium.Tile
	// PipelineOptions configures a Compiler: its result cache.
	PipelineOptions = pipeline.Options
	// ResultCache is the unified result-store surface every compile cache
	// implements (Get/Put/Stats/Len/Reset/Close) and the type
	// PipelineOptions.Cache and CompileServerOptions.Cache consume.
	ResultCache = pipeline.ResultCache
	// CompileCacheStats is the counter snapshot a ResultCache reports:
	// hits, misses, evictions, resident entries and bytes.
	CompileCacheStats = pipeline.Stats
	// CompileServer is the HTTP/JSON compile service (the mpschedd core).
	CompileServer = server.Server
	// CompileServerOptions configures a CompileServer.
	CompileServerOptions = server.Options
	// CompileRequest is the /v1/compile and /v1/jobs request body.
	CompileRequest = server.CompileRequest
	// CompileResponse is a finished compile on the wire.
	CompileResponse = server.CompileResponse
	// BatchRequest is the /v1/batch envelope: many compiles, one request.
	BatchRequest = server.BatchRequest
	// BatchItem is one streamed per-job result of a /v1/batch envelope.
	BatchItem = server.BatchItem
	// WireCodec is a serving wire format; Client.WithCodec selects one.
	WireCodec = wire.Codec
	// Client is the typed client for a running mpschedd daemon.
	Client = client.Client
	// TraceData is one request's recorded span breakdown, as served by
	// the daemon's GET /debug/traces endpoints (Client.Trace).
	TraceData = obs.TraceData
	// SpanData is one timed step inside a TraceData.
	SpanData = obs.SpanData
	// Metrics is a parsed /metrics scrape (Client.Metrics), queryable by
	// family name and label pairs.
	Metrics = obs.Metrics
	// ResilienceOptions selects the failure policies Client.WithResilience
	// applies: retries, tail-latency hedging, circuit breakers. Each nil
	// field disables that policy; see DefaultResilience.
	ResilienceOptions = client.ResilienceOptions
	// ResilienceStats is a snapshot of what a resilient client's policies
	// did (Client.ResilienceStats).
	ResilienceStats = client.ResilienceStats
	// RetryPolicy is capped exponential backoff with full jitter
	// (ResilienceOptions.Retry); its zero value is a usable default.
	RetryPolicy = resilience.RetryPolicy
	// BreakerOptions tunes the per-endpoint circuit breakers
	// (ResilienceOptions.Breaker); its zero value is a usable default.
	BreakerOptions = resilience.BreakerOptions
	// HedgerOptions tunes the tail-latency hedging trigger
	// (ResilienceOptions.Hedge).
	HedgerOptions = resilience.HedgerOptions
)

// DefaultResilience enables every client failure policy at its
// defaults — the configuration the chaos gate runs under. See the
// README's "Resilience" section.
func DefaultResilience() ResilienceOptions { return client.DefaultResilience() }

// Resilience sentinel errors: ErrWaitTimeout marks a Client.WaitJob
// that outlived its context, ErrBreakerOpen a call refused fast because
// the endpoint's circuit is open.
var (
	ErrWaitTimeout = client.ErrWaitTimeout
	ErrBreakerOpen = resilience.ErrBreakerOpen
)

// TraceHeader is the HTTP header carrying a request's trace ID. Set it
// (or CompileRequest.TraceID through the Client) to correlate a call
// with the daemon's span breakdown; the server echoes the effective ID
// on every traced response.
const TraceHeader = obs.TraceHeader

// Wire codecs for Client.WithCodec: the curl-friendly JSON default and
// the compact binary format (see internal/wire and the README's
// "Wire codecs" section).
var (
	JSONCodec   WireCodec = wire.JSON
	BinaryCodec WireCodec = wire.Binary
)

// Scheduler option re-exports.
const (
	// F1 counts covered nodes (Eq. 6); F2 sums their priorities (Eq. 7).
	F1 = sched.F1
	F2 = sched.F2
	// Tie-break policies for equal-priority candidates.
	TieIndexDesc = sched.TieIndexDesc
	TieIndexAsc  = sched.TieIndexAsc
	TieStable    = sched.TieStable
	TieRandom    = sched.TieRandom
	// SpanUnlimited disables the antichain span bound.
	SpanUnlimited = patsel.SpanUnlimited
)

// NewGraph returns an empty data-flow graph.
func NewGraph(name string) *Graph { return dfg.NewGraph(name) }

// NewBuilder returns a by-name graph builder.
func NewBuilder(name string) *GraphBuilder { return dfg.NewBuilder(name) }

// ParsePattern reads "aabcc" or "{a,b,c}" notation.
func ParsePattern(s string) (Pattern, error) { return pattern.Parse(s) }

// ParsePatternSet reads a space- or semicolon-separated pattern list.
func ParsePatternSet(s string) (*PatternSet, error) { return pattern.ParseSet(s) }

// NewPatternSet builds a set from patterns, dropping duplicates.
func NewPatternSet(ps ...Pattern) *PatternSet { return pattern.NewSet(ps...) }

// SelectPatterns runs the paper's pattern selection algorithm (§5). It is
// a shim over Compiler: a select-only compile of the graph.
func SelectPatterns(g *Graph, cfg SelectConfig) (*Selection, error) {
	rep, err := facadeCompile(NewCompileSpec(g, WithSelect(cfg), WithStopAfter(StageSelect)))
	if err != nil {
		return nil, err
	}
	return rep.Selection, nil
}

// SelectPatternsBestSpan sweeps span limits and keeps the selection whose
// schedule is shortest. Returns the selection, its schedule, and the span.
// It is a shim over Compiler: a span-sweep compile stopped after
// scheduling.
func SelectPatternsBestSpan(g *Graph, cfg SelectConfig, spans []int, opts SchedOptions) (*Selection, *ScheduleResult, int, error) {
	if len(spans) == 0 {
		spans = []int{0, 1, 2}
	}
	rep, err := facadeCompile(NewCompileSpec(g,
		WithSelect(cfg), WithSchedule(opts), WithSpans(spans...), WithStopAfter(StageSchedule)))
	if err != nil {
		return nil, nil, 0, err
	}
	return rep.Selection, rep.Schedule, rep.Span, nil
}

// RandomPatterns is the paper's random baseline: Pdef patterns of C
// uniform colors covering the graph's color set.
func RandomPatterns(g *Graph, cfg SelectConfig, rng *rand.Rand) (*PatternSet, error) {
	return patsel.Random(g, cfg, rng)
}

// Schedule runs multi-pattern list scheduling (§4) against the patterns.
// It is a shim over Compiler: an explicit-pattern compile stopped after
// scheduling.
func Schedule(g *Graph, ps *PatternSet, opts SchedOptions) (*ScheduleResult, error) {
	rep, err := facadeCompile(NewCompileSpec(g,
		WithPatterns(ps), WithSchedule(opts), WithStopAfter(StageSchedule)))
	if err != nil {
		return nil, err
	}
	return rep.Schedule, nil
}

// ScheduleLowerBound returns a provable minimum cycle count.
func ScheduleLowerBound(g *Graph, ps *PatternSet) (int, error) {
	return sched.LowerBound(g, ps)
}

// EnumerateAntichains runs the bounded enumeration of §5.1.
func EnumerateAntichains(g *Graph, cfg AntichainConfig) (*AntichainResult, error) {
	return antichain.Enumerate(g, cfg)
}

// Allocate binds a schedule to a tile architecture (registers, memories,
// ALU slots).
func Allocate(s *ScheduleResult, arch Arch) (*Program, error) {
	return alloc.Allocate(s, arch)
}

// DefaultArch is the Montium tile of the paper: 5 ALUs, 32-pattern
// configuration store.
func DefaultArch() Arch { return alloc.DefaultArch() }

// NewTile loads an allocated program onto a simulated tile.
func NewTile(p *Program) (*Tile, error) { return montium.NewTile(p) }

// Compile lowers expression-language source to a data-flow graph
// (lexing, parsing, folding, CSE, negation pushing). It is a shim over
// Compiler: a parse-only compile of the source.
func Compile(src string, opts transform.Options) (*Graph, error) {
	rep, err := facadeCompile(NewSourceCompileSpec(src,
		WithSourceOptions(opts), WithStopAfter(StageParse)))
	if err != nil {
		return nil, err
	}
	return rep.Graph, nil
}

// ThreeDFT returns the paper's Fig. 2 graph — the 24-node 3-point DFT.
func ThreeDFT() *Graph { return workloads.ThreeDFT() }

// Fig4Example returns the paper's 5-node Fig. 4 example graph.
func Fig4Example() *Graph { return workloads.Fig4Small() }

// NPointDFT generates the N-point DFT graph in the paper's idiom.
func NPointDFT(n int) (*Graph, error) { return workloads.NPointDFT(n) }

// FIRFilter generates a block FIR filter graph (taps × block).
func FIRFilter(taps, block int) (*Graph, error) { return workloads.FIRFilter(taps, block) }

// MatMul generates a dense n×n matrix-product graph.
func MatMul(n int) (*Graph, error) { return workloads.MatMul(n) }

// Butterfly generates a structural radix-2 butterfly network.
func Butterfly(stages int) (*Graph, error) { return workloads.Butterfly(stages) }

// ScheduleOptimal finds a provably minimal schedule by branch and bound
// (≤64 nodes; exponential worst case — a validation tool, not a planner).
func ScheduleOptimal(g *Graph, ps *PatternSet, maxStates int) (*ScheduleResult, error) {
	return sched.Optimal(g, ps, maxStates)
}

// ScheduleForceDirected runs the classic force-directed heuristic with a
// single resource bag — the related-work baseline the paper contrasts.
func ScheduleForceDirected(g *Graph, p Pattern, maxLength int) (*ScheduleResult, error) {
	return sched.ForceDirected(g, p, maxLength)
}

// Width returns the size of the graph's largest antichain (Dilworth via
// maximum matching) — the ceiling on per-cycle parallelism.
func Width(g *Graph) int { return g.Reach().Width() }

// EliminateDead removes operations that feed no output, returning the
// pruned graph and the number of nodes removed.
func EliminateDead(g *Graph) (*Graph, int, error) { return transform.EliminateDead(g) }

// NewCompileCache returns a content-addressed compilation cache holding at
// most maxEntries results (≤ 0 for the default bound). Share one cache
// across compiles so repeated workloads skip enumeration entirely.
func NewCompileCache(maxEntries int) ResultCache { return pipeline.NewShardedCache(maxEntries, 1) }

// NewTieredCompileCache returns a result cache whose memory tier holds
// at most maxEntries results (≤ 0 for the default bound) in `shards`
// independently-locked shards (≤ 0 for an automatic count), backed by a
// persistent disk tier rooted at dir, holding at most maxBytes on disk
// (≤ 0 for the default bound). Lookups missing memory fall through to disk and promote; puts
// write through. A process reopened over the same dir starts warm — the
// store behind mpschedd -store-dir. The caller owns the cache: pass it
// via CompileServerOptions.Cache and Close it after the server drains.
func NewTieredCompileCache(maxEntries, shards int, dir string, maxBytes int64) (ResultCache, error) {
	return pipeline.NewTieredCache(maxEntries, shards, dir, maxBytes, nil)
}

// NewServer returns the embeddable compile service: an http.Handler
// serving /v1/compile, /v1/jobs, /v1/workloads, /healthz and /metrics
// over the staged compiler. Run it under any http.Server, or use
// cmd/mpschedd for the standalone daemon. Call Drain on shutdown.
func NewServer(opts CompileServerOptions) *CompileServer { return server.New(opts) }

// NewClient returns a typed client for the mpschedd daemon at baseURL,
// e.g. "http://localhost:8080".
func NewClient(baseURL string) *Client { return client.New(baseURL) }
