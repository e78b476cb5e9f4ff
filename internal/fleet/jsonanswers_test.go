package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/wire"
)

// TestJSONAnswersMatchReference: through a router over two daemons, JSON
// bodies on /v1/compile, on /v1/jobs with a poll and on /v1/batch get
// answers whose bytes are encoding/json's encoding of what they decode
// to, line by line on a batch stream, and each fault gets its pinned
// status and text. A request takes the hand-written paths (canonical
// bodies, names that need escapes) and encoding/json's (pretty-printed,
// case-variant keys, null fields, an unknown field, trailing data, a
// dfg nested past encoding/json's depth limit), and every fault is
// answered as the daemon answers it.
func TestJSONAnswersMatchReference(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	g, err := cliutil.Generate("3dft")
	if err != nil {
		t.Fatal(err)
	}
	text, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	loop := dfg.NewGraph("loop")
	a := loop.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := loop.MustAddNode(dfg.Node{Name: "b", Color: "a"})
	loop.MustAddDep(a, b)
	loop.MustAddDep(b, a)
	loopText, err := json.Marshal(loop)
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(map[string]any{"name": "pretty", "dfg": json.RawMessage(text), "select": map[string]int{"pdef": 3}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const escapes = "q\\\"uote <&> \u2028 \u2029 \xff tab\\t"
	deep := strings.Repeat("[", 10000) + strings.Repeat("]", 10000) // too deep inside any envelope
	for _, tc := range []struct {
		name   string
		job    string // the request, alone or as the envelope's one job
		tail   string // follows the body
		status int    // the answer's status, or its batch item's
		err    string // the fault, with %s for the body ("request" or "batch")
	}{
		{name: "canonical", job: `{"name":"canon","dfg":` + string(text) + `,"spans":[0,1]}`, status: 200},
		{name: "names that need escapes", job: `{"name":"` + escapes + `","dfg":` + string(text) + `}`, status: 200},
		{name: "pretty-printed", job: string(pretty), status: 200},
		{name: "case-variant keys", job: `{"Name":"cased","WORKLOAD":"3dft","Select":{"PDef":2}}`, status: 200},
		{name: "null fields", job: `{"name":null,"workload":"fir:8,2","select":null,"spans":null}`, status: 200},
		{name: "unknown field", job: `{"workload":"3dft","bogus":1}`, status: 400, err: `bad %s body: json: unknown field "bogus"`},
		{name: "trailing data", job: `{"workload":"3dft"}`, tail: " x", status: 400, err: "bad %s body: wire: trailing data after the JSON value"},
		{name: "bad graph", job: `{"dfg":` + string(loopText) + `}`, status: 400, err: `dfg "loop": dependency cycle: graph: cycle detected involving node 0`},
		{name: "too deep", job: `{"dfg":` + deep + `}`, status: 400, err: "bad %s body: invalid character '[' exceeded max depth"},
	} {
		for _, route := range []string{"/v1/compile", "/v1/jobs", "/v1/batch"} {
			body, kind := tc.job+tc.tail, "request"
			if route == "/v1/batch" {
				body, kind = `{"jobs":[`+tc.job+`]}`+tc.tail, "batch"
			}
			what := fmt.Sprintf("%s, %s", tc.name, route)
			status, raw := jsonAnswer(t, f.rts.URL, route, body)
			if dstatus, draw := jsonAnswer(t, f.backends[0].URL, route, body); status != http.StatusOK && (dstatus != status || !bytes.Equal(draw, raw)) {
				t.Errorf("%s: router answered %d %s, the daemon %d %s", what, status, raw, dstatus, draw)
			}
			var fault wire.BatchItem // a fault's status and text, wherever it is
			switch {
			case status != http.StatusOK && status != http.StatusAccepted:
				fault.Status = status
				fault.Error = decodeAs[wire.ErrorResponse](t, raw).Error
			case route == "/v1/batch":
				fault = *decodeAs[wire.BatchItem](t, raw)
			default:
				fault.Status = status
			}
			if want := strings.ReplaceAll(tc.err, "%s", kind); fault.Status != tc.status || fault.Error != want {
				t.Errorf("%s: answered %d %q, want %d %q", what, fault.Status, fault.Error, tc.status, want)
			}
		}
	}
}

// decodeAs decodes a JSON document.
func decodeAs[T any](t *testing.T, raw []byte) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	return v
}

// jsonAnswer posts a JSON body to route at base and returns the status
// and the body — for /v1/jobs, the finished job's — after checking that
// each JSON document in it is encoding/json's encoding of its decoded
// value.
func jsonAnswer(t *testing.T, base, route, body string) (int, []byte) {
	t.Helper()
	status, raw := httpDo(t, http.MethodPost, base+route, body)
	if route == "/v1/jobs" && status == http.StatusAccepted {
		// Poll at least once: a job can be done by the time it is accepted.
		id := decodeAs[wire.JobResponse](t, raw).ID
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			status, raw = httpDo(t, http.MethodGet, base+"/v1/jobs/"+id, "")
			if job := decodeAs[wire.JobResponse](t, raw); job.Status == wire.JobDone || job.Status == wire.JobFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", id)
			}
		}
	}
	for _, doc := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(doc) == 0 {
			continue
		}
		var v any
		switch {
		case status != http.StatusOK && status != http.StatusAccepted:
			v = new(wire.ErrorResponse)
		case route == "/v1/compile":
			v = new(wire.CompileResponse)
		case route == "/v1/jobs":
			v = new(wire.JobResponse)
		default:
			v = new(wire.BatchItem)
		}
		if err := json.Unmarshal(doc, v); err != nil {
			t.Fatalf("%s answered %d %q: %v", route, status, doc, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, want.Bytes()) {
			t.Errorf("%s answered\n %q\nwhere encoding/json writes\n %q", route, doc, want.Bytes())
		}
	}
	return status, raw
}

func httpDo(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}
