package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpsched/internal/fleet"
	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/store"
	"mpsched/internal/wire"
)

// clients is the closed-loop client count; each holds one connection, and
// the load never opens more connections than the 2-core target has cores.
const clients = 2

// workload is one traffic mix. README.md says why each was chosen.
type workload struct {
	name  string
	codec wire.Codec
	// batch > 0 sends /v1/batch envelopes of that many jobs.
	batch int
	// freshEvery > 0 makes every freshEvery-th request of a client a
	// never-seen graph.
	freshEvery int
	inputs     func(seed int64) ([]input, error)
	start      func(e *env) error
}

var workloads = []*workload{
	// JSON compiles of a pre-warmed hot set: all wire, dfg, server and
	// store lookup, no compiler.
	{name: "warm-json", codec: wire.JSON, inputs: hotSet, start: startWarm},
	// The same hot set in binary envelopes of 64 jobs.
	{name: "warm-batch", codec: wire.Binary, batch: 64, inputs: hotSet, start: startWarm},
	// Binary compiles with the result cache off: census, select, schedule.
	{name: "cold-corpus", codec: wire.Binary, inputs: coldCorpus, start: startCold},
	// JSON through the router to two daemons on tiered stores, 10% of it
	// never-seen graphs that compile cold and append to disk.
	{name: "mixed-fleet", codec: wire.JSON, freshEvery: 10, inputs: hotSet, start: startFleet},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func startWarm(e *env) error {
	return e.single(server.Options{Cache: e.cache(pipeline.NewShardedCache(0, 0))})
}

func startCold(e *env) error { return e.single(server.Options{CacheEntries: -1}) }

// fleetMemoryEntries sizes each mixed-fleet daemon's memory tier. It holds
// the hot set many times over, and never-seen results overflow it to the
// disk tier within the warm-up, so the footprint a run measures does not
// depend on how many never-seen graphs the run had time to compile.
const fleetMemoryEntries = 512

func startFleet(e *env) error {
	var urls []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(e.tmpDir, "store-")
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() error { return os.RemoveAll(dir) })
		c, err := pipeline.NewTieredCache(fleetMemoryEntries, 0, dir, 0, nil)
		if err != nil {
			return err
		}
		url, err := e.daemon(server.Options{Cache: e.cache(c)})
		if err != nil {
			return err
		}
		urls = append(urls, url)
	}
	rt, err := fleet.New(fleet.Options{Backends: urls})
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() error { rt.Close(); return nil })
	url, err := e.serve(e.tr.handler("fleet", rt))
	if err != nil {
		return err
	}
	e.connect(url)
	return nil
}

// tally counts every compile a run attempts, across all its phases and
// set-ups, and keeps the first few failure messages.
type tally struct {
	attempted, failed, rejected, verifyFailed atomic.Int64

	mu   sync.Mutex
	errs []string
}

const maxErrors = 5

func (t *tally) fail(n int, rejected bool, msg string) {
	t.failed.Add(int64(n))
	if rejected {
		t.rejected.Add(int64(n))
	}
	t.note(msg)
}

func (t *tally) badOutput(msg string) {
	t.failed.Add(1)
	t.verifyFailed.Add(1)
	t.note(msg)
}

func (t *tally) note(msg string) {
	t.mu.Lock()
	if len(t.errs) < maxErrors {
		t.errs = append(t.errs, msg)
	}
	t.mu.Unlock()
}

// env is one set-up of a workload: its inputs, its in-process daemons
// (and router) behind loopback listeners, and the client that drives them.
type env struct {
	w      *workload
	seed   int64
	tmpDir string
	tally  *tally
	tr     *tracer // nil on untraced runs

	inputs []input
	reqs   []wire.CompileRequest // one per input, in the workload's codec
	fpOne  [][]string            // per input: its fingerprint as a span's fps
	refs   []*wire.CompileResponse
	bounds []int

	transport *http.Transport
	c         *client.Client
	caches    []pipeline.ResultCache
	closers   []func() error

	state [clients]struct {
		seq, hot, fresh int
		rng             *rand.Rand
		order           []int // the current round's input order
		// jobs and idx are the client's envelope, refilled per request.
		jobs []wire.CompileRequest
		idx  []int
	}

	// freshSeen keeps the first never-seen graphs and their responses,
	// which the layer replay weighs in for mixed-fleet.
	freshMu   sync.Mutex
	freshSeen []replayItem
}

// maxFreshSeen is how many never-seen graphs the layer replay samples.
const maxFreshSeen = 8

// setUp starts the workload's daemons (and router) and pre-warms them
// with its inputs.
func setUp(ctx context.Context, w *workload, seed int64, inputs []input, tmpDir string, tl *tally, tr *tracer) (*env, error) {
	e := &env{w: w, seed: seed, tmpDir: tmpDir, tally: tl, tr: tr, inputs: inputs}
	for _, in := range inputs {
		e.reqs = append(e.reqs, request(w.codec, in))
		e.fpOne = append(e.fpOne, []string{in.fp})
	}
	if err := w.start(e); err != nil {
		return nil, errors.Join(err, e.close())
	}
	if err := e.prewarm(ctx); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func request(codec wire.Codec, in input) wire.CompileRequest {
	if codec == wire.JSON {
		return wire.CompileRequest{DFG: in.json}
	}
	return wire.CompileRequest{Graph: in.graph}
}

// cache registers a daemon's result store for stats and closing, and
// wraps it for tracing.
func (e *env) cache(c pipeline.ResultCache) pipeline.ResultCache {
	e.caches = append(e.caches, c)
	e.closers = append(e.closers, c.Close)
	return traceStore(c, e.tr)
}

// single points the load at one daemon.
func (e *env) single(opts server.Options) error {
	url, err := e.daemon(opts)
	if err != nil {
		return err
	}
	e.connect(url)
	return nil
}

// daemon starts a compile daemon behind a loopback listener.
func (e *env) daemon(opts server.Options) (string, error) {
	s := server.New(opts)
	e.closers = append(e.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return s.Drain(ctx)
	})
	return e.serve(e.tr.handler("server", s))
}

func (e *env) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	e.closers = append(e.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// connect points the load at url over at most one connection per client.
func (e *env) connect(url string) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.Proxy = nil
	t.MaxConnsPerHost = clients
	t.MaxIdleConnsPerHost = clients
	e.transport = t
	e.c = client.New(url).WithHTTPClient(&http.Client{Transport: t}).WithCodec(e.w.codec)
}

// close tears the set-up down in reverse order of construction.
func (e *env) close() error {
	var errs []error
	for i := len(e.closers) - 1; i >= 0; i-- {
		errs = append(errs, e.closers[i]())
	}
	e.closers = nil
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// prewarm compiles every input once, verifies each response in full and
// keeps it as the reference every later response must repeat. On the
// warm workloads this also fills the result caches. The clients share the
// inputs between them, as they share the load.
func (e *env) prewarm(ctx context.Context) error {
	e.refs = make([]*wire.CompileResponse, len(e.inputs))
	e.bounds = make([]int, len(e.inputs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(e.inputs); i += clients {
				in := e.inputs[i]
				e.tally.attempted.Add(1)
				resp, err := e.c.Compile(ctx, e.reqs[i])
				if err != nil {
					errs[k] = fmt.Errorf("set-up compile of %s: %w", in.name, err)
					return
				}
				bound, err := verifySchedule(in.graph, resp, in.want)
				if err != nil {
					e.tally.badOutput(fmt.Sprintf("%s: %v", in.name, err))
				}
				e.refs[i], e.bounds[i] = resp, bound
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cyclesOverBound is Σ cycles ÷ Σ lower bound over the workload's fixed
// kernels. The seeded random graphs are verified like every input but left
// out of the ratio: across seeds it would vary by several percent, and the
// kernels alone show a one-cycle change on any of them.
func (e *env) cyclesOverBound() float64 {
	var cycles, bound int
	for i, r := range e.refs {
		if !e.inputs[i].random() {
			cycles += r.Cycles
			bound += e.bounds[i]
		}
	}
	if bound == 0 {
		return 0
	}
	return float64(cycles) / float64(bound)
}

// cacheStats sums the daemons' result-store counters, and the disk tier's
// hits where the store is tiered.
func (e *env) cacheStats() (st store.Stats, diskHits int64) {
	for _, c := range e.caches {
		s := c.Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		if t, ok := c.(store.Tiers); ok {
			for _, ts := range t.Tiers() {
				if ts.Tier == "disk" {
					diskHits += ts.Hits
				}
			}
		}
	}
	return st, diskHits
}

// shot is one HTTP request of the load: a single compile or an envelope.
type shot struct {
	seq   int
	req   wire.CompileRequest
	jobs  []wire.CompileRequest
	idx   []int    // input index per compile; -1 for a never-seen graph
	fresh *input   // the never-seen graph, when the request carries one
	fps   []string // its distinct fingerprints; nil on an envelope
}

// plan returns client k's next request, drawn from the client's own
// seeded stream. Single compiles walk the inputs in rounds, each round in
// a fresh order; an envelope draws its jobs at random from the inputs.
// Either way the two clients' requests pair up at random instead of
// locking into one alignment, as identical requests in lockstep would.
func (e *env) plan(k int) shot {
	st := &e.state[k]
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(e.seed*clients + int64(k)))
	}
	sh := shot{seq: st.seq}
	st.seq++
	switch {
	case e.w.batch > 0:
		if st.jobs == nil {
			st.jobs, st.idx = make([]wire.CompileRequest, e.w.batch), make([]int, e.w.batch)
		}
		for j := range st.jobs {
			i := st.rng.Intn(len(e.inputs))
			st.jobs[j], st.idx[j] = e.reqs[i], i
		}
		sh.jobs, sh.idx = st.jobs, st.idx
	case e.w.freshEvery > 0 && sh.seq%e.w.freshEvery == e.w.freshEvery-1:
		in := freshInput(e.seed, k, st.fresh)
		st.fresh++
		sh.req, sh.idx, sh.fresh, sh.fps = request(e.w.codec, in), []int{-1}, &in, []string{in.fp}
	default:
		if st.hot%len(e.inputs) == 0 {
			st.order = st.rng.Perm(len(e.inputs))
		}
		i := st.order[st.hot%len(e.inputs)]
		st.hot++
		sh.req, sh.idx, sh.fps = e.reqs[i], []int{i}, e.fpOne[i]
	}
	return sh
}

// fingerprints lists the distinct fingerprints of the inputs idx names.
func (e *env) fingerprints(idx []int) []string {
	var fps []string
	for _, i := range idx {
		if fp := e.inputs[i].fp; !slices.Contains(fps, fp) {
			fps = append(fps, fp)
		}
	}
	return fps
}

// send issues a shot and returns the responses by position in sh.idx,
// nil where a compile failed.
func (e *env) send(ctx context.Context, sh shot, traceID string) ([]*wire.CompileResponse, error) {
	if sh.jobs == nil {
		sh.req.TraceID = traceID
		resp, err := e.c.Compile(ctx, sh.req)
		return []*wire.CompileResponse{resp}, err
	}
	sh.jobs[0].TraceID = traceID // the envelope's trace ID rides its first job
	items, err := e.c.CompileBatch(ctx, sh.jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*wire.CompileResponse, len(sh.jobs))
	for _, it := range items {
		if it.Status != http.StatusOK {
			e.tally.fail(1, it.Status == http.StatusTooManyRequests, fmt.Sprintf("batch item %d: %d %s", it.Index, it.Status, it.Error))
			continue
		}
		out[it.Index] = it.Result
	}
	return out, nil
}

// check verifies a shot's responses and returns how many compiles
// succeeded with a correct schedule.
func (e *env) check(sh shot, resps []*wire.CompileResponse, err error) int {
	e.tally.attempted.Add(int64(len(sh.idx)))
	if err != nil {
		var api *client.APIError
		rejected := errors.As(err, &api) && api.StatusCode == http.StatusTooManyRequests
		e.tally.fail(len(sh.idx), rejected, err.Error())
		return 0
	}
	good := 0
	for j, r := range resps {
		switch i := sh.idx[j]; {
		case r == nil: // failed item, already counted
		case i < 0:
			if _, err := verifySchedule(sh.fresh.graph, r, 0); err != nil {
				e.tally.badOutput(fmt.Sprintf("%s: %v", sh.fresh.name, err))
				continue
			}
			good++
			e.freshMu.Lock()
			if len(e.freshSeen) < maxFreshSeen {
				e.freshSeen = append(e.freshSeen, replayItem{in: *sh.fresh, ref: r})
			}
			e.freshMu.Unlock()
		case !sameSchedule(e.refs[i], r):
			e.tally.badOutput(fmt.Sprintf("%s: schedule differs from the first response", e.inputs[i].name))
		default:
			good++
		}
	}
	return good
}

// drive runs the closed loop for d: each client sends its next request as
// soon as the previous one returns. Requests completing after d count
// toward the tally but not toward the window.
func (e *env) drive(ctx context.Context, d time.Duration, traced bool) phase {
	parts := make([]phase, clients)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			for ctx.Err() == nil && time.Now().Before(end) {
				sh := e.plan(k)
				id := ""
				if traced {
					id = fmt.Sprintf("%s-%d-%d", e.w.name, k, sh.seq)
				}
				t0 := time.Now()
				resps, err := e.send(ctx, sh, id)
				t1 := time.Now()
				if traced {
					fps := sh.fps
					if fps == nil {
						fps = e.fingerprints(sh.idx)
					}
					e.tr.add(span{Trace: id, Name: "client", Start: e.tr.at(t0), End: e.tr.at(t1), fps: fps})
				}
				good := e.check(sh, resps, err)
				if good == len(sh.idx) && !t1.After(end) {
					group := 0
					if sh.jobs == nil {
						group = sh.idx[0]
					}
					p.samples = append(p.samples, sample{done: t1.Sub(start), lat: t1.Sub(t0), compiles: good, group: group})
				}
			}
		}(k)
	}
	wg.Wait()
	out := phase{window: d}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
	}
	return out
}
