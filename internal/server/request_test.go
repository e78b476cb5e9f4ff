package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"mpsched/internal/resilience"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// TestFailureStatusSameOnEveryRoute: one bad request gets one status,
// whether it arrives at /v1/compile, at /v1/jobs, or as an item of a
// JSON /v1/batch envelope (where an envelope-level failure, such as an
// oversized body, is the status of the whole request).
func TestFailureStatusSameOnEveryRoute(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxBodyBytes: 512})
	cyclic := `{"dfg":{"name":"loop","nodes":[{"name":"a","color":"a"},{"name":"b","color":"a"}],"edges":[[0,1],[1,0]]}}`
	for _, tc := range []struct {
		name     string
		body     string
		deadline string
		want     int
	}{
		{"expired deadline", `{"workload":"3dft"}`, "-5ms", http.StatusGatewayTimeout},
		{"unknown workload", `{"workload":"nope:9"}`, "", http.StatusBadRequest},
		{"cyclic inline graph", cyclic, "", http.StatusBadRequest},
		{"oversized body", fmt.Sprintf(`{"workload":"3dft","name":%q}`, strings.Repeat("x", 1024)), "", http.StatusRequestEntityTooLarge},
	} {
		for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
			body := tc.body
			if route == "/v1/batch" {
				body = `{"jobs":[` + body + `]}`
			}
			req, err := http.NewRequest(http.MethodPost, c.BaseURL()+route, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", wire.ContentTypeJSON)
			if tc.deadline != "" {
				req.Header.Set(resilience.DeadlineHeader, tc.deadline)
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
