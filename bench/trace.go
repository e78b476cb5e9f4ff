package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/store"
)

// span is one timed step the bench observed around a public call: a
// client request, a router or daemon handler, a result-store lookup.
type span struct {
	ID     int    `json:"id"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"` // client, fleet, server, store.get, store.put
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root
	// Key is the fingerprint a store span looked up (the key's prefix).
	Key string `json:"key,omitempty"`
	// ReqBytes and RespBytes are handler spans' body sizes.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
	// fps are a client span's graph fingerprints (deduplicated), which
	// tie store spans to the request that caused them.
	fps []string
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one run in memory. Wrappers record only while
// on is set, so the untraced part of a traced run pays one atomic load.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

func (t *tracer) add(s span) {
	s.Parent = -1
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// taken returns the recorded spans; call it once nothing records.
func (t *tracer) taken() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// handler wraps a router or daemon so every compile-path request records
// a span named name, tagged with the request's trace ID and body sizes.
// A nil tracer returns h unchanged.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.add(span{Trace: r.Header.Get(obs.TraceHeader), Name: name, Start: t.at(start), End: t.at(time.Now()),
			ReqBytes: r.ContentLength, RespBytes: cw.n})
	})
}

// countingWriter counts response bytes. It keeps http.Flusher, which the
// batch endpoint streams through.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedStore wraps a daemon's result store (any store.Store[V]; the
// pipeline's entry type stays unexported) and records a span per Get and
// Put.
type timedStore[V any] struct {
	store.Store[V]
	t *tracer
}

// traceStore wraps s; a nil tracer returns s unchanged.
func traceStore[V any](s store.Store[V], t *tracer) store.Store[V] {
	if t == nil {
		return s
	}
	return &timedStore[V]{Store: s, t: t}
}

func (s *timedStore[V]) Get(key string) (V, bool) {
	if !s.t.on.Load() {
		return s.Store.Get(key)
	}
	start := time.Now()
	v, ok := s.Store.Get(key)
	s.t.add(span{Name: "store.get", Start: s.t.at(start), End: s.t.at(time.Now()), Key: keyFingerprint(key)})
	return v, ok
}

func (s *timedStore[V]) Put(key string, v V) {
	if !s.t.on.Load() {
		s.Store.Put(key, v)
		return
	}
	start := time.Now()
	s.Store.Put(key, v)
	s.t.add(span{Name: "store.put", Start: s.t.at(start), End: s.t.at(time.Now()), Key: keyFingerprint(key)})
}

// keyFingerprint is the graph fingerprint a result-cache key starts with.
func keyFingerprint(key string) string {
	fp, _, _ := strings.Cut(key, "|")
	return fp
}

// layers is what the spans of one run say about each layer on the
// request path.
type layers struct {
	requests int // traced client requests with a handler span
	// Per-request self times, and per-span handler and store times.
	clientSelf, fleetSelf, serverSelf, serverSpan []time.Duration
	storeGet, storePut                            []time.Duration
	// Sums behind each layer's share of end-to-end latency.
	e2e, clientSum, fleetSum, serverSum, storeSum time.Duration
	fleetSpans, forwards                          int
	reqBytes, respBytes                           int64 // summed over outermost handler spans
}

// analyze links the spans of a run into requests and computes every
// layer's self time: a span's duration minus the part of it its children
// cover. Handler spans link to their client span by trace ID. Store spans
// carry no trace ID, so each is linked to the daemon span, among those
// whose request carried the key's graph, that started last before it and
// covers it; when concurrent requests carry the same graph (the two
// batch clients' envelopes) the choice between them is arbitrary, which
// moves time between requests but not between layers. analyze sets the
// Parent of every linked span.
func analyze(spans []span) *layers {
	type request struct {
		client         *span
		fleet, servers []*span
	}
	reqs := map[string]*request{}
	var stores []*span
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "store.get", "store.put":
			stores = append(stores, s)
			continue
		}
		r := reqs[s.Trace]
		if r == nil {
			r = &request{}
			reqs[s.Trace] = r
		}
		switch s.Name {
		case "client":
			r.client = s
		case "fleet":
			r.fleet = append(r.fleet, s)
		case "server":
			r.servers = append(r.servers, s)
		}
	}

	byFP := map[string][]*span{}
	for _, r := range reqs {
		if r.client == nil {
			continue
		}
		for _, fp := range r.client.fps {
			byFP[fp] = append(byFP[fp], r.servers...)
		}
	}
	for _, ss := range byFP {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	children := map[*span][]*span{}
	l := &layers{}
	for _, st := range stores {
		if st.Name == "store.get" {
			l.storeGet = append(l.storeGet, st.dur())
		} else {
			l.storePut = append(l.storePut, st.dur())
		}
		cands := byFP[st.Key]
		i := sort.Search(len(cands), func(i int) bool { return cands[i].Start > st.Start })
		for i--; i >= 0; i-- {
			if cands[i].End >= st.End {
				st.Parent = cands[i].ID
				children[cands[i]] = append(children[cands[i]], st)
				break
			}
		}
	}

	for _, r := range reqs {
		if r.client == nil || len(r.servers) == 0 {
			continue
		}
		l.requests++
		outer := r.servers
		if len(r.fleet) > 0 {
			outer = r.fleet
			l.fleetSpans += len(r.fleet)
			l.forwards += len(r.servers)
			for _, f := range r.fleet {
				f.Parent = r.client.ID
				self := f.dur() - covered(f, r.servers)
				l.fleetSelf = append(l.fleetSelf, self)
				l.fleetSum += self
			}
		}
		for _, o := range outer {
			o.Parent = r.client.ID
			l.reqBytes += o.ReqBytes
			l.respBytes += o.RespBytes
		}
		for _, s := range r.servers {
			if len(r.fleet) > 0 {
				s.Parent = r.fleet[0].ID
			}
			st := covered(s, children[s])
			l.serverSpan = append(l.serverSpan, s.dur())
			l.serverSelf = append(l.serverSelf, s.dur()-st)
			l.serverSum += s.dur() - st
			l.storeSum += st
		}
		self := r.client.dur() - covered(r.client, outer)
		l.clientSelf = append(l.clientSelf, self)
		l.clientSum += self
		l.e2e += r.client.dur()
	}
	return l
}

// covered is how much of parent's interval the children's union covers.
func covered(parent *span, children []*span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// writeSpans writes the spans of a traced run as one JSON document.
func writeSpans(path, workload string, live, replay []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Live     []span `json:"live"`
		Replay   []span `json:"replay,omitempty"`
	}{workload, live, replay})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
