package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// TestFailureStatusSameOnEveryRoute: one bad request gets one status,
// whether it arrives at /v1/compile, at /v1/jobs, or as an item of a
// JSON /v1/batch envelope (where an envelope-level failure, such as an
// oversized body or data trailing the body's JSON value, is the status
// of the whole request).
func TestFailureStatusSameOnEveryRoute(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxBodyBytes: 512})
	cyclic := `{"dfg":{"name":"loop","nodes":[{"name":"a","color":"a"},{"name":"b","color":"a"}],"edges":[[0,1],[1,0]]}}`
	for _, tc := range []struct {
		name     string
		body     string
		deadline string
		want     int
		trailing string // follows the body, or the batch envelope around it
	}{
		{"expired deadline", `{"workload":"3dft"}`, "-5ms", http.StatusGatewayTimeout, ""},
		{"unknown workload", `{"workload":"nope:9"}`, "", http.StatusBadRequest, ""},
		{"cyclic inline graph", cyclic, "", http.StatusBadRequest, ""},
		{"null inline graph", `{"dfg":null}`, "", http.StatusBadRequest, ""},
		{"oversized body", fmt.Sprintf(`{"workload":"3dft","name":%q}`, strings.Repeat("x", 1024)), "", http.StatusRequestEntityTooLarge, ""},
		{"second JSON value", `{"workload":"3dft"}`, "", http.StatusBadRequest, ` {"workload":"fir:8,2"}`},
		{"trailing text", `{"workload":"3dft"}`, "", http.StatusBadRequest, "\ntrailing"},
	} {
		for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
			body := tc.body
			if route == "/v1/batch" {
				body = `{"jobs":[` + body + `]}`
			}
			body += tc.trailing
			req, err := http.NewRequest(http.MethodPost, c.BaseURL()+route, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", wire.ContentTypeJSON)
			if tc.deadline != "" {
				req.Header.Set(wire.DeadlineHeader, tc.deadline)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			status := resp.StatusCode
			if route == "/v1/batch" && status == http.StatusOK {
				var item server.BatchItem
				if err := json.NewDecoder(resp.Body).Decode(&item); err != nil {
					t.Fatalf("%s %s: batch item: %v", tc.name, route, err)
				}
				status = item.Status
			}
			resp.Body.Close()
			if status != tc.want {
				t.Errorf("%s at %s: status %d, want %d", tc.name, route, status, tc.want)
			}
		}
	}
}

// TestHugeCapacityRejectedOnEveryRoute: a pattern capacity past the
// census's limit is a 400 naming select.c on every route and codec, before
// anything is sized by it, and the daemon stays up. An allocation sized by
// C = 2³³ fails with a fatal out-of-memory error, which no panic recovery
// catches.
func TestHugeCapacityRejectedOnEveryRoute(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	const huge = 1 << 33
	body := fmt.Sprintf(`{"workload":"3dft","select":{"c":%d}}`, huge)
	for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
		b := body
		if route == "/v1/batch" {
			b = `{"jobs":[` + b + `]}`
		}
		resp, err := http.Post(c.BaseURL()+route, wire.ContentTypeJSON, strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		status, msg := resp.StatusCode, ""
		if route == "/v1/batch" && status == http.StatusOK {
			var item server.BatchItem
			if err := json.NewDecoder(resp.Body).Decode(&item); err != nil {
				t.Fatalf("%s: batch item: %v", route, err)
			}
			status, msg = item.Status, item.Error
		} else {
			raw, _ := io.ReadAll(resp.Body)
			msg = string(raw)
		}
		resp.Body.Close()
		if status != http.StatusBadRequest || !strings.Contains(msg, "select.c") {
			t.Errorf("%s: status %d %q, want 400 naming select.c", route, status, msg)
		}
	}

	req := server.CompileRequest{Workload: "3dft", Select: &server.SelectConfig{C: huge}}
	bin := c.WithCodec(wire.Binary)
	_, err := bin.Compile(ctx, req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, "select.c") {
		t.Errorf("binary /v1/compile: err %v, want a 400 naming select.c", err)
	}
	items, err := bin.CompileBatch(ctx, []server.CompileRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if it := items[0]; it.Status != http.StatusBadRequest || !strings.Contains(it.Error, "select.c") {
		t.Errorf("binary /v1/batch item: status %d %q, want 400 naming select.c", it.Status, it.Error)
	}

	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz after the rejected requests: %+v, %v", h, err)
	}
}

// TestLargestCapacityMatchesNodeCount: no antichain has more members than
// the graph has nodes, so the largest accepted capacity compiles exactly
// as a capacity of the node count does. (fir:12,2 agrees too, but its
// census at C = n holds 29M antichains, seconds per compile.)
func TestLargestCapacityMatchesNodeCount(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	for _, w := range []string{"3dft", "ndft:4", "butterfly:3", "random:seed=7,n=40"} {
		g, err := cliutil.Generate(w)
		if err != nil {
			t.Fatal(err)
		}
		compile := func(capacity int) *server.CompileResponse {
			resp, err := c.Compile(ctx, server.CompileRequest{Workload: w, Select: &server.SelectConfig{C: capacity}})
			if err != nil {
				t.Fatalf("%s at c=%d: %v", w, capacity, err)
			}
			return resp
		}
		got, want := compile(65535), compile(g.N())
		if !reflect.DeepEqual(got.Patterns, want.Patterns) || got.Cycles != want.Cycles ||
			!reflect.DeepEqual(got.CycleOf, want.CycleOf) || !reflect.DeepEqual(got.PatternOf, want.PatternOf) ||
			!reflect.DeepEqual(got.Census, want.Census) {
			t.Errorf("%s: c=65535 compiled %v in %d cycles, c=%d %v in %d", w, got.Patterns, got.Cycles, g.N(), want.Patterns, want.Cycles)
		}
	}
}

// TestSpanSweepNameOnWire: a swept compile is named with its spans in
// both codecs, so two requests differing only by their sweep stay
// distinguishable to the client.
func TestSpanSweepNameOnWire(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		resp, err := c.WithCodec(codec).Compile(context.Background(),
			server.CompileRequest{Workload: "3dft", Name: "fleet", Spans: []int{0, 1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resp.Name, "fleet[spans=0,1,2]"; got != want {
			t.Errorf("%s: name %q, want %q", codec.Name(), got, want)
		}
	}
	// The same bytes as a raw JSON body, to pin the field on the wire.
	resp, err := http.Post(c.BaseURL()+"/v1/compile", wire.ContentTypeJSON,
		strings.NewReader(`{"name":"fleet","workload":"3dft","spans":[0,1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"name":"fleet[spans=0,1,2]"`)) {
		t.Errorf("JSON body does not carry the swept name: %s", raw)
	}
}

// TestBadGraphFailsOnlyItsBatchItem: in a /v1/batch envelope of either
// codec, a job whose inline graph does not decode is its own 400 item,
// with the same error text, and its neighbour still compiles. The binary
// codec decodes graphs inside the envelope frame, where such a graph
// used to fail the whole envelope.
func TestBadGraphFailsOnlyItsBatchItem(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	checkBadGraphItem(t, c)
}

// TestBadGraphSameAnswerOnEveryRoute: a single request whose inline
// graph does not decode is a 400 at /v1/compile and at /v1/jobs, whose
// text is the graph's own error in either codec.
func TestBadGraphSameAnswerOnEveryRoute(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	checkBadGraphRequest(t, c)
}

// cyclicGraph is the two-node cycle of the "cyclic inline graph" case
// above, built in memory so the binary codec can frame it.
func cyclicGraph() *dfg.Graph {
	g := dfg.NewGraph("loop")
	a := g.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := g.MustAddNode(dfg.Node{Name: "b", Color: "a"})
	g.MustAddDep(a, b)
	g.MustAddDep(b, a)
	return g
}

func checkBadGraphItem(t *testing.T, c *client.Client) {
	t.Helper()
	var texts []string
	for _, codec := range wire.Codecs() {
		items, err := c.WithCodec(codec).CompileBatch(context.Background(),
			[]server.CompileRequest{{Workload: "3dft"}, {Graph: cyclicGraph()}})
		if err != nil {
			t.Fatalf("%s envelope: %v", codec.Name(), err)
		}
		sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
		if items[0].Status != http.StatusOK || items[1].Status != http.StatusBadRequest {
			t.Fatalf("%s envelope: statuses %d, %d; want 200, 400", codec.Name(), items[0].Status, items[1].Status)
		}
		texts = append(texts, items[1].Error)
	}
	if texts[0] != texts[1] || !strings.Contains(texts[0], `dfg "loop": dependency cycle`) {
		t.Errorf("bad-graph item text differs by codec:\n json:   %s\n binary: %s", texts[0], texts[1])
	}
}

func checkBadGraphRequest(t *testing.T, c *client.Client) {
	t.Helper()
	ctx := context.Background()
	for _, route := range []string{"/v1/compile", "/v1/jobs"} {
		var texts []string
		for _, codec := range wire.Codecs() {
			cc, req := c.WithCodec(codec), server.CompileRequest{Graph: cyclicGraph()}
			var err error
			if route == "/v1/compile" {
				_, err = cc.Compile(ctx, req)
			} else {
				_, err = cc.SubmitJob(ctx, req)
			}
			var api *client.APIError
			if !errors.As(err, &api) || api.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: %v, want a 400", codec.Name(), route, err)
			}
			texts = append(texts, api.Message)
		}
		if texts[0] != texts[1] || !strings.Contains(texts[0], `dfg "loop": dependency cycle`) {
			t.Errorf("%s: bad-graph text differs by codec:\n json:   %s\n binary: %s", route, texts[0], texts[1])
		}
	}
}
