// Package cliutil holds the helpers shared by the command-line tools:
// loading data-flow graphs from generator specs or files, and parsing the
// small option grammars the tools share.
package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpsched/internal/dfg"
	"mpsched/internal/sched"
	"mpsched/internal/workloads"
)

// ParseFlags parses argv with fs, mapping the help pseudo-error to a
// successful exit: `tool -h` is a request the tool fulfilled, not a usage
// error. done reports that the caller should stop and return code — either
// help was printed (code 0) or parsing failed after the FlagSet already
// printed its diagnostic (code 2). Callers construct fs with
// flag.ContinueOnError and route output with fs.SetOutput.
func ParseFlags(fs *flag.FlagSet, argv []string) (code int, done bool) {
	switch err := fs.Parse(argv); {
	case err == nil:
		return 0, false
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	default:
		return 2, true
	}
}

// Serve is the body of the daemons' main: it listens on addr and serves h
// until SIGINT or SIGTERM. Once listening it prints banner, a format
// whose one verb takes the bound address, to stdout, and sends the
// address on ready when that is non-nil. On a signal it stops accepting
// connections and waits up to timeout for the requests in flight, then
// runs drain, the daemon's second shutdown phase, when non-nil, with a
// timeout of its own: a slow request holding the first phase open must
// not eat the window the second one promises. Serve returns the exit
// code: 0 after a clean shutdown, 1 when listening, serving or either
// shutdown phase fails.
func Serve(addr string, h http.Handler, banner string, timeout time.Duration, stdout io.Writer, logger *log.Logger, ready chan<- string, drain func(context.Context) error) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, banner+"\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-sigCh:
		logger.Printf("received %v, draining (timeout %s)", sig, timeout)
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		return 1
	}

	code := 0
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), timeout)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
		code = 1
	}
	if drain != nil {
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), timeout)
		defer cancelDrain()
		if err := drain(drainCtx); err != nil {
			logger.Printf("drain incomplete: %v", err)
			return 1
		}
	}
	if code == 0 {
		logger.Print("drained, bye")
	}
	return code
}

// Workload describes one generator family for catalogs (the dfgtool help
// text and the compile service's GET /v1/workloads endpoint).
type Workload struct {
	Name        string `json:"name"`        // family, e.g. "fft"
	Spec        string `json:"spec"`        // spec grammar, e.g. "fft:N"
	Description string `json:"description"` // one-line human description
	Example     string `json:"example"`     // a concrete valid spec
}

// Catalog lists every workload family Generate accepts, in stable order.
// Keep in sync with Generate's switch.
func Catalog() []Workload {
	return []Workload{
		{Name: "3dft", Spec: "3dft", Description: "the paper's Fig. 2 graph: 24-node 3-point DFT", Example: "3dft"},
		{Name: "fig4", Spec: "fig4", Description: "the paper's 5-node Fig. 4 example graph", Example: "fig4"},
		{Name: "ndft", Spec: "ndft:N", Description: "N-point DFT in the paper's idiom", Example: "ndft:5"},
		{Name: "fft", Spec: "fft:N", Description: "radix-2 FFT, N a power of two", Example: "fft:16"},
		{Name: "fir", Spec: "fir:TAPS,BLOCK", Description: "block FIR filter (TAPS taps over a BLOCK-sample block)", Example: "fir:8,4"},
		{Name: "matmul", Spec: "matmul:N", Description: "dense N×N matrix product", Example: "matmul:3"},
		{Name: "butterfly", Spec: "butterfly:STAGES", Description: "structural radix-2 butterfly network", Example: "butterfly:3"},
		{Name: "random", Spec: "random:SEED | random:seed=S,n=N[,colors=K][,layers=L][,fanin=F]", Description: "seeded random layered DAG; the keyed form pins the exact node count, color mix and shape", Example: "random:seed=7,n=96,colors=3"},
		{Name: "chain", Spec: "chain:depth=D[,width=W][,colors=K]", Description: "W parallel dependency chains of depth D merged into one sink (serial-latency tier)", Example: "chain:depth=48,width=2"},
		{Name: "wide", Spec: "wide:stages=S[,lanes=L][,colors=K]", Description: "butterfly network over L lanes (power of two), every level L wide (width-stress tier)", Example: "wide:stages=4,lanes=16"},
	}
}

// HotSetSpecs lists the 32 graph specs of a warm-serving hot set — the
// shapes the repository benchmark's warm workloads send (bench/inputs.go):
// six kernels plus one seeded random graph per rung of a fixed size ladder
// (n = 24..63), so the bytes per graph do not depend on the seed. The
// ingest microbenchmarks measure over the seed-1 set.
func HotSetSpecs(seed int64) []string {
	const randoms = 26
	rng := rand.New(rand.NewSource(seed))
	specs := []string{"3dft", "ndft:4", "fir:12,2", "butterfly:3", "wide:stages=4,lanes=8", "chain:depth=48,width=2"}
	for i := 0; i < randoms; i++ {
		n := 24 + i*(63-24)/(randoms-1)
		specs = append(specs, fmt.Sprintf("random:seed=%d,n=%d", rng.Int63(), n))
	}
	return specs
}

// LoadGraph resolves a graph from either a generator spec or a file path
// (exactly one must be non-empty; an empty pair defaults to the 3DFT).
//
// Generator specs: 3dft, fig4, ndft:N, fft:N (radix-2, power of two),
// fir:TAPS,BLOCK, matmul:N, butterfly:STAGES, random:SEED (legacy) or
// random:seed=S,n=N[,colors=K][,layers=L][,fanin=F],
// chain:depth=D[,width=W][,colors=K], wide:stages=S[,lanes=L][,colors=K].
// Files: *.json (the dfg JSON schema) or the line-oriented text format.
func LoadGraph(gen, file string) (*dfg.Graph, error) {
	switch {
	case gen != "" && file != "":
		return nil, fmt.Errorf("use either a generator or a file, not both")
	case file != "":
		return loadFile(file)
	case gen == "":
		gen = "3dft"
	}
	return Generate(gen)
}

func loadFile(path string) (*dfg.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		var g dfg.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, err
		}
		return &g, nil
	}
	return dfg.ReadText(strings.NewReader(string(data)))
}

// MaxGeneratedNodes bounds how large a graph a generator spec may
// describe (estimated before building). Specs are accepted from untrusted
// network clients via the mpschedd compile service, where an unbounded
// "matmul:2000" (~10¹⁰ nodes) would OOM the daemon before any later size
// check could run; the same guard saves a CLI user from a typo.
const MaxGeneratedNodes = 1 << 20

// checkGenSize rejects a spec whose estimated node count exceeds
// MaxGeneratedNodes. Estimates are cheap closed forms computed from the
// parameters, deliberately on the generous side.
func checkGenSize(spec string, estimate float64) error {
	if estimate > MaxGeneratedNodes {
		return fmt.Errorf("workload %q would generate ~%.0f nodes, over the %d limit", spec, estimate, MaxGeneratedNodes)
	}
	return nil
}

// Generate builds a workload graph from a spec string. Specs describing
// more than MaxGeneratedNodes nodes are rejected before any allocation.
func Generate(spec string) (*dfg.Graph, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "3dft":
		return workloads.ThreeDFT(), nil
	case "fig4":
		return workloads.Fig4Small(), nil
	case "ndft":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("ndft wants ndft:N, got %q", spec)
		}
		if err := checkGenSize(spec, 8*float64(n)*float64(n)); err != nil { // O(N²) multiplies
			return nil, err
		}
		return workloads.NPointDFT(n)
	case "fft":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("fft wants fft:N, got %q", spec)
		}
		if err := checkGenSize(spec, 8*float64(n)*math.Log2(math.Max(float64(n), 2))); err != nil { // O(N log N) butterflies
			return nil, err
		}
		return workloads.RadixTwoFFT(n)
	case "fir":
		taps, block, err := twoInts(arg)
		if err != nil {
			return nil, fmt.Errorf("fir wants fir:TAPS,BLOCK, got %q", spec)
		}
		if err := checkGenSize(spec, 4*float64(taps)*float64(block)); err != nil { // O(T·B) taps
			return nil, err
		}
		return workloads.FIRFilter(taps, block)
	case "matmul":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("matmul wants matmul:N, got %q", spec)
		}
		if err := checkGenSize(spec, 4*float64(n)*float64(n)*float64(n)); err != nil { // O(N³) multiply-adds
			return nil, err
		}
		return workloads.MatMul(n)
	case "butterfly":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("butterfly wants butterfly:STAGES, got %q", spec)
		}
		return workloads.Butterfly(n) // stages already capped at 10 by the generator
	case "random":
		if !strings.Contains(arg, "=") {
			// Legacy form random:SEED — the pre-corpus default-shaped DAG.
			seed, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("random wants random:SEED or random:seed=S,n=N,..., got %q", spec)
			}
			return workloads.RandomColored(rand.New(rand.NewSource(seed)),
				workloads.DefaultRandomColoredConfig()), nil
		}
		kv, err := parseKV(arg, "seed", "n", "colors", "layers", "fanin")
		if err != nil {
			return nil, fmt.Errorf("random: %v in %q", err, spec)
		}
		n := kv.get("n", 64)
		if err := checkGenSize(spec, float64(n)); err != nil {
			return nil, err
		}
		return workloads.RandomTiered(workloads.TierConfig{
			Seed:   kv.get("seed", 1),
			N:      int(n),
			Colors: int(kv.get("colors", 0)),
			Layers: int(kv.get("layers", 0)),
			FanIn:  int(kv.get("fanin", 0)),
		})
	case "chain":
		kv, err := parseKV(arg, "depth", "width", "colors")
		if err != nil {
			return nil, fmt.Errorf("chain: %v in %q", err, spec)
		}
		depth, width := kv.get("depth", 32), kv.get("width", 1)
		if err := checkGenSize(spec, float64(depth)*float64(width)+1); err != nil {
			return nil, err
		}
		return workloads.DeepChain(int(depth), int(width), int(kv.get("colors", 2)))
	case "wide":
		kv, err := parseKV(arg, "stages", "lanes", "colors")
		if err != nil {
			return nil, fmt.Errorf("wide: %v in %q", err, spec)
		}
		stages, lanes := kv.get("stages", 4), kv.get("lanes", 8)
		if err := checkGenSize(spec, (float64(stages)+1)*float64(lanes)); err != nil {
			return nil, err
		}
		return workloads.WideButterfly(int(stages), int(lanes), int(kv.get("colors", 2)))
	default:
		return nil, fmt.Errorf("unknown workload %q", spec)
	}
}

// kvArgs is a parsed key=value spec argument list.
type kvArgs map[string]int64

// get returns the value for key, or def when the spec did not set it.
func (kv kvArgs) get(key string, def int64) int64 {
	if v, ok := kv[key]; ok {
		return v
	}
	return def
}

// parseKV parses "k=v,k=v" integer arguments, rejecting keys outside
// `allowed` and repeated keys — a typo in a scenario spec must fail loudly,
// not silently fall back to a default and measure the wrong workload.
func parseKV(arg string, allowed ...string) (kvArgs, error) {
	ok := func(k string) bool {
		for _, a := range allowed {
			if k == a {
				return true
			}
		}
		return false
	}
	kv := kvArgs{}
	for _, part := range strings.Split(arg, ",") {
		k, v, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found || k == "" {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", part)
		}
		if !ok(k) {
			return nil, fmt.Errorf("unknown parameter %q (want one of %s)", k, strings.Join(allowed, ", "))
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("parameter %q given twice", k)
		}
		x, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %q is not an integer", k, v)
		}
		kv[k] = x
	}
	return kv, nil
}

func twoInts(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, ",")
	if !ok {
		return 0, 0, fmt.Errorf("want two comma-separated integers")
	}
	x, err1 := strconv.Atoi(strings.TrimSpace(a))
	y, err2 := strconv.Atoi(strings.TrimSpace(b))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("want two comma-separated integers")
	}
	return x, y, nil
}

// ParseTieBreak maps the CLI names to scheduler policies.
func ParseTieBreak(s string) (sched.TieBreak, error) {
	switch s {
	case "desc":
		return sched.TieIndexDesc, nil
	case "asc":
		return sched.TieIndexAsc, nil
	case "stable":
		return sched.TieStable, nil
	case "random":
		return sched.TieRandom, nil
	}
	return 0, fmt.Errorf("unknown tie-break %q (want desc, asc, stable, random)", s)
}

// ParsePriority maps F1/F2 names to pattern priorities.
func ParsePriority(s string) (sched.PatternPriority, error) {
	switch strings.ToUpper(s) {
	case "F1":
		return sched.F1, nil
	case "F2":
		return sched.F2, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want F1 or F2)", s)
}

// ParseInputs reads "name=value,name=value" into the defaults map (which
// is mutated and returned); names must already exist as graph inputs.
func ParseInputs(defaults map[string]float64, spec string) (map[string]float64, error) {
	if spec == "" {
		return defaults, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad input %q (want name=value)", kv)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", kv, err)
		}
		if _, exists := defaults[name]; !exists {
			return nil, fmt.Errorf("graph has no input %q", name)
		}
		defaults[name] = v
	}
	return defaults, nil
}
