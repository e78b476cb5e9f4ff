package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/frame"
)

// resolveBody reads body as a /v1/compile request in codec c through
// ReadRequest and gs, and returns its graph.
func resolveBody(c Codec, body []byte, gs *GraphStore) (*dfg.Graph, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
	r.Header.Set("Content-Type", c.ContentType())
	w := httptest.NewRecorder()
	req, ok := ReadRequest(w, r, 1<<20, gs, func(string) {})
	switch {
	case !ok:
		return nil, fmt.Errorf("ReadRequest answered %d %s", w.Code, w.Body)
	case req.GraphErr() != nil:
		return nil, req.GraphErr()
	}
	return req.Graph, nil
}

// readGraph is resolveBody, failing the test unless the graph decodes.
func readGraph(t testing.TB, c Codec, body []byte, gs *GraphStore) *dfg.Graph {
	t.Helper()
	g, err := resolveBody(c, body, gs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeRequest is req as codec c frames it.
func encodeRequest(t testing.TB, c Codec, req *CompileRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chainGraph is a named chain of n nodes.
func chainGraph(name string, n int) *dfg.Graph {
	g := dfg.NewGraph(name)
	for i := 0; i < n; i++ {
		id := g.MustAddNode(dfg.Node{Name: fmt.Sprintf("node%d", i), Color: "a"})
		if i > 0 {
			g.MustAddDep(id-1, id)
		}
	}
	return g
}

// TestGraphStoreBound: 600 distinct graphs leave at most
// graphStoreEntries in the store, and a graph over maxStoredGraph wire
// bytes decodes but is never stored, so it misses on every repeat while
// a small graph hits.
func TestGraphStoreBound(t *testing.T) {
	gs := NewGraphStore()
	for i := 0; i < 600; i++ {
		readGraph(t, JSON, encodeRequest(t, JSON, &CompileRequest{Graph: twoNodeGraph(fmt.Sprintf("g%d", i), "b")}), gs)
	}
	st := gs.Stats()
	if st.Entries > graphStoreEntries || st.Evictions != 600-int64(st.Entries) {
		t.Fatalf("after 600 distinct graphs: %d entries, %d evictions; bound %d", st.Entries, st.Evictions, graphStoreEntries)
	}

	large := chainGraph("large", 2000)
	text, err := large.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Codecs() {
		for form, req := range map[string]*CompileRequest{"dfg text": {DFG: text}, "graph": {Graph: large}} {
			size := len(text)
			if form == "graph" {
				if c == JSON {
					continue // the JSON codec sends a graph as its dfg text
				}
				size = len(large.AppendBinary(nil))
			}
			if size <= maxStoredGraph {
				t.Fatalf("the large graph's %s is %d bytes, not over %d", form, size, maxStoredGraph)
			}
			body := encodeRequest(t, c, req)
			for i := 0; i < 2; i++ {
				before := gs.Stats()
				got := readGraph(t, c, body, gs)
				after := gs.Stats()
				if got.Fingerprint() != large.Fingerprint() {
					t.Fatalf("%s %s: decoded a different graph", c.Name(), form)
				}
				if after.Misses != before.Misses+1 || after.Hits != before.Hits {
					t.Errorf("%s %s, send %d: %d hits and %d misses, want one more miss", c.Name(), form, i+1, after.Hits-before.Hits, after.Misses-before.Misses)
				}
			}
		}
	}

	small := encodeRequest(t, JSON, &CompileRequest{Graph: twoNodeGraph("small", "b")})
	readGraph(t, JSON, small, gs)
	before := gs.Stats()
	readGraph(t, JSON, small, gs)
	if after := gs.Stats(); after.Hits != before.Hits+1 {
		t.Errorf("a repeated small graph did not hit: %+v then %+v", before, after)
	}
}

// TestGraphStoreKeysOwnTheirBytes: a binary request resolved through the
// store, from a buffer that is then overwritten and reused for the next
// request, as a pooled body is, leaves its key and graph in the store as
// they were decoded: its bytes still hit, on the same graph, and the
// graph still frames and fingerprints as before.
func TestGraphStoreKeysOwnTheirBytes(t *testing.T) {
	gs := NewGraphStore()
	first := encodeRequest(t, Binary, &CompileRequest{Graph: generate(t, "3dft")})
	second := encodeRequest(t, Binary, &CompileRequest{Graph: generate(t, "fir:12,2")})
	buf := make([]byte, max(len(first), len(second)))
	resolve := func(body []byte) *dfg.Graph {
		t.Helper()
		var req CompileRequest
		rd := frame.NewReader(buf[:copy(buf, body)], ErrFormat)
		graphs, texts := newMemos(gs, false)
		if err := decodeRequest(&rd, &req, graphs, texts); err != nil || req.GraphErr() != nil {
			t.Fatalf("decode: %v, graph: %v", err, req.GraphErr())
		}
		return req.Graph
	}
	g := resolve(first)
	want := requestBytes(t, &CompileRequest{Graph: g})
	for i := range buf {
		buf[i] = 0xa5
	}
	resolve(second)
	for i := range buf {
		buf[i] = 0x5a
	}
	before := gs.Stats()
	again := readGraph(t, Binary, first, gs)
	if after := gs.Stats(); after.Hits != before.Hits+1 || again != g {
		t.Fatalf("the first request's bytes no longer hit its graph: %+v then %+v", before, after)
	}
	if got := requestBytes(t, &CompileRequest{Graph: g}); got != want {
		t.Error("the stored graph changed with the buffer it was decoded from")
	}
}

// TestGraphStoreConcurrent: 16 goroutines resolve one shared body and
// one body of their own, in both codecs and both graph forms, and use
// each graph as a router does — fingerprint it and frame it for the
// forward in either codec. Each body always resolves to its own graph,
// and a shared one to one graph once stored. Run with -race.
func TestGraphStoreConcurrent(t *testing.T) {
	gs := NewGraphStore()
	shared := generate(t, "3dft")
	sharedText, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(g *dfg.Graph, text []byte) map[string][]byte {
		return map[string][]byte{
			"json":        encodeRequest(t, JSON, &CompileRequest{DFG: text}),
			"binary":      encodeRequest(t, Binary, &CompileRequest{Graph: g}),
			"binary-text": encodeRequest(t, Binary, &CompileRequest{DFG: text}),
		}
	}
	codecOf := map[string]Codec{"json": JSON, "binary": Binary, "binary-text": Binary}
	sharedBodies := bodies(shared, sharedText)
	wantFrame := string(shared.AppendBinary(nil))

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		own := twoNodeGraph(fmt.Sprintf("own%d", w), "b")
		ownText, err := json.Marshal(own)
		if err != nil {
			t.Fatal(err)
		}
		ownBodies, ownFP := bodies(own, ownText), own.Fingerprint()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for form, body := range sharedBodies {
					g, err := resolveBody(codecOf[form], body, gs)
					if err == nil {
						var text []byte
						text, err = json.Marshal(g)
						if err == nil && string(text) != string(sharedText) {
							err = fmt.Errorf("dfg text %.40s…", text)
						}
					}
					if err != nil || g.Fingerprint() != shared.Fingerprint() || string(g.AppendBinary(nil)) != wantFrame {
						errs <- fmt.Errorf("worker %d: shared %s body resolved to another graph (%v)", w, form, err)
						return
					}
				}
				for form, body := range ownBodies {
					g, err := resolveBody(codecOf[form], body, gs)
					if err != nil || g.Fingerprint() != ownFP || g.Name != own.Name {
						errs <- fmt.Errorf("worker %d: own %s body resolved to another graph (%v)", w, form, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for form, body := range sharedBodies {
		a, b := readGraph(t, codecOf[form], body, gs), readGraph(t, codecOf[form], body, gs)
		if a != b {
			t.Errorf("shared %s body: two graphs once stored", form)
		}
	}
}

// routerDecodeAllocs budgets ReadRequest on a JSON /v1/compile body whose
// graph the store holds: the request's own decode (3 allocations for the
// 2,110 B dfg text of the seed-1 hot set's 3dft, where encoding/json took
// 19, most of them its scanner's state stack as it skipped the graph
// into a RawMessage) with room for the race detector's pool drops, and
// nothing for the graph, whose decode takes 212.
const routerDecodeAllocs = 8

// TestGraphStoreDecodeAllocs: reading a JSON request whose graph is in
// the store allocates a small constant, well below what decoding that
// graph alone does; with a nil store, the same read pays for the graph.
func TestGraphStoreDecodeAllocs(t *testing.T) {
	g := generate(t, cliutil.HotSetSpecs(1)[0])
	text, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body := encodeRequest(t, JSON, &CompileRequest{DFG: text})
	graphAllocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeJSONGraph(text); err != nil {
			t.Fatal(err)
		}
	})
	gs := NewGraphStore()
	r := httptest.NewRequest(http.MethodPost, "/v1/compile", nil)
	w := httptest.NewRecorder()
	var rd bytes.Reader
	read := func(gs *GraphStore) func() {
		return func() {
			rd.Reset(body)
			r.Body = io.NopCloser(&rd)
			if req, ok := ReadRequest(w, r, 1<<20, gs, func(string) {}); !ok || req.Graph == nil {
				t.Fatalf("ReadRequest answered %d %s", w.Code, w.Body)
			}
		}
	}
	read(gs)() // store the graph
	hit := testing.AllocsPerRun(20, read(gs))
	miss := testing.AllocsPerRun(20, read(nil))
	if hit > routerDecodeAllocs || 4*routerDecodeAllocs > graphAllocs {
		t.Errorf("read through a warm store: %.0f allocs, budget %d; the graph alone decodes in %.0f", hit, routerDecodeAllocs, graphAllocs)
	}
	if miss < graphAllocs {
		t.Errorf("read without a store: %.0f allocs, fewer than the graph's own %.0f", miss, graphAllocs)
	}
	t.Logf("%s (%d B of dfg JSON): %.0f allocs through a warm store, %.0f without one, %.0f for the graph alone",
		g.Name, len(text), hit, miss, graphAllocs)
}

// TestGraphStoreSpecsAndGraphsApart: a workload spec and an inline graph
// whose bytes equal the spec's text never share an entry, and a spec
// that does not generate is not stored.
func TestGraphStoreSpecsAndGraphsApart(t *testing.T) {
	gs := NewGraphStore()
	g, err := gs.Workload("3dft")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := gs.Workload("3dft"); again != g {
		t.Fatal("a repeated spec generated a second graph")
	}
	if _, err := gs.decode(formJSON, []byte("3dft")); err == nil {
		t.Fatal(`the dfg text "3dft" decoded, as the spec's entry`)
	}
	for i := 0; i < 2; i++ {
		if _, err := gs.Workload("nope:1"); err == nil || !strings.Contains(err.Error(), "nope") {
			t.Fatalf("unknown spec: %v", err)
		}
	}
	if st := gs.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 4 {
		t.Errorf("stats %+v, want 1 entry, 1 hit, 4 misses", st)
	}
	var none *GraphStore
	if h, err := none.Workload("3dft"); err != nil || h == g || h.Fingerprint() != g.Fingerprint() {
		t.Fatalf("nil store: %v", err)
	}
	if st := none.Stats(); st.Hits+st.Misses+st.Evictions != 0 || st.Entries != 0 {
		t.Fatalf("nil store stats %+v", st)
	}
}
