package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// TestRouterGraphStoreSameAnswers: through a router over two daemons, on
// /v1/compile, /v1/jobs and /v1/batch and in both codecs, every request
// answers the same when it is sent again, apart from cache_hit, timings
// and trace and job IDs. A repeated graph, a renamed copy and the same
// JSON with other whitespace are each stored by their bytes, so the
// repeat is a hit in the router's graph store; a renamed copy answers
// under its own name; a graph that does not decode gets its 400 each
// time and is never stored; and {"dfg":null} is no graph, with no
// lookup.
func TestRouterGraphStoreSameAnswers(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	g, err := cliutil.Generate("3dft")
	if err != nil {
		t.Fatal(err)
	}
	renamed := g.Clone()
	renamed.Name = "renamed"
	loop := dfg.NewGraph("loop")
	a := loop.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := loop.MustAddNode(dfg.Node{Name: "b", Color: "a"})
	loop.MustAddDep(a, b)
	loop.MustAddDep(b, a)
	text := func(g *dfg.Graph) []byte {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, text(g), "", "  "); err != nil {
		t.Fatal(err)
	}

	answers := map[string]string{} // by case, codec and route
	type storeDelta struct{ hits, misses int64 }
	hit, miss, none := storeDelta{1, 0}, storeDelta{0, 1}, storeDelta{0, 0}
	for _, tc := range []struct {
		name   string
		dfg    []byte     // the inline graph as dfg JSON text, or
		graph  *dfg.Graph // as a graph (the binary codec frames it)
		repeat storeDelta // what the repeat does in the graph store
		want   string     // in the answer: its name, or its error
		like   string     // the case whose answer this one's must equal
	}{
		{name: "repeated graph", dfg: text(g), repeat: hit, want: `"name":"3dft"`},
		{name: "repeated graph frame", graph: g, repeat: hit, want: `"name":"3dft"`},
		{name: "renamed copy", dfg: text(renamed), repeat: hit, want: `"name":"renamed"`},
		{name: "renamed copy frame", graph: renamed, repeat: hit, want: `"name":"renamed"`},
		{name: "other whitespace", dfg: spaced.Bytes(), repeat: hit, want: `"name":"3dft"`, like: "repeated graph"},
		{name: "undecodable graph", dfg: text(loop), repeat: miss, want: `"error":"dfg \"loop\": dependency cycle`},
		{name: "undecodable graph frame", graph: loop, repeat: miss, want: `"error":"dfg \"loop\": dependency cycle`},
		{name: "null graph", dfg: []byte("null"), repeat: none, want: `"error":"workload: provide a graph`},
	} {
		for _, codec := range wire.Codecs() {
			if tc.graph != nil && codec == wire.JSON {
				continue // the JSON codec carries a graph only as dfg text
			}
			for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
				body := requestBody(t, codec, route, tc.dfg, tc.graph)
				first := routerAnswer(t, f, codec, route, body)
				before := f.rt.graphs.Stats()
				again := routerAnswer(t, f, codec, route, body)
				after := f.rt.graphs.Stats()
				what := fmt.Sprintf("%s, %s %s", tc.name, codec.Name(), route)
				if again != first {
					t.Errorf("%s: the repeat answered differently:\n first  %s\n repeat %s", what, first, again)
				}
				if !bytes.Contains([]byte(first), []byte(tc.want)) {
					t.Errorf("%s: answered %s, want %q in it", what, first, tc.want)
				}
				answers[what] = first
				if like := fmt.Sprintf("%s, %s %s", tc.like, codec.Name(), route); tc.like != "" && first != answers[like] {
					t.Errorf("%s: answered differently from %s:\n %s\n %s", what, tc.like, first, answers[like])
				}
				if got := (storeDelta{after.Hits - before.Hits, after.Misses - before.Misses}); got != tc.repeat {
					t.Errorf("%s: the repeat made %d hits and %d misses in the graph store, want %d and %d",
						what, got.hits, got.misses, tc.repeat.hits, tc.repeat.misses)
				}
			}
		}
	}
}

// requestBody is one request carrying the inline graph — dfg text, kept
// byte for byte, or a graph — in codec's framing for route: a single
// request, or a /v1/batch envelope of one job.
func requestBody(t *testing.T, codec wire.Codec, route string, text []byte, g *dfg.Graph) []byte {
	t.Helper()
	if codec == wire.JSON {
		// The JSON encoder would compact the text; send it as given.
		body := `{"dfg":` + string(text) + `}`
		if route == "/v1/batch" {
			body = `{"jobs":[` + body + `]}`
		}
		return []byte(body)
	}
	var buf bytes.Buffer
	req := wire.CompileRequest{DFG: text, Graph: g}
	var err error
	if route == "/v1/batch" {
		err = codec.EncodeBatch(&buf, &wire.BatchRequest{Jobs: []wire.CompileRequest{req}})
	} else {
		err = codec.EncodeRequest(&buf, &req)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routerAnswer posts body to route at the router and renders what comes
// back — the status and the body, a job's result once it is done, or a
// batch's items in job order — with cache_hit, timings and trace and job
// IDs cleared.
func routerAnswer(t *testing.T, f *testFleet, codec wire.Codec, route string, body []byte) string {
	t.Helper()
	resp, err := http.Post(f.rts.URL+route, codec.ContentType(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mask := func(r *wire.CompileResponse) *wire.CompileResponse {
		if r != nil {
			r.CacheHit, r.ElapsedMS, r.Stages, r.TraceID = false, 0, nil, ""
		}
		return r
	}
	render := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, data)
	}
	switch ok := resp.StatusCode < 300; {
	case !ok:
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, raw)
	case route == "/v1/compile":
		var r wire.CompileResponse
		if err := codec.DecodeResponse(resp.Body, &r); err != nil {
			t.Fatal(err)
		}
		return render(mask(&r))
	case route == "/v1/jobs":
		var job wire.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done, err := client.New(f.rts.URL).WaitJob(ctx, job.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		done.ID, done.TraceID = "", ""
		mask(done.Result)
		return render(done)
	default:
		var items []wire.BatchItem
		ir := codec.NewItemReader(resp.Body)
		for {
			var it wire.BatchItem
			err := ir.ReadItem(&it)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			mask(it.Result)
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
		return render(items)
	}
}
