package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"mpsched/internal/cliutil"
)

// The JSON codec's hand-written paths are held to encoding/json: the
// reference decodes every body (decodeStrict, or json.Decoder for
// responses) and encodes every value (encodeJSON).

// referenceRequest decodes body as the JSON codec did with encoding/json
// alone.
func referenceRequest(body []byte, req *CompileRequest) error {
	if err := decodeStrict(bytes.NewReader(body), req); err != nil {
		return err
	}
	req.decodeDFG(req.DFG, graphMemo{form: formJSON})
	return nil
}

// sameDecode fails unless two decodes gave the same error text and, with
// none, the same value: graphs compared by name and fingerprint, graph
// errors by text.
func sameDecode(t *testing.T, what string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, encoding/json %q", what, errText(gotErr), errText(wantErr))
	}
	if gotErr != nil {
		return
	}
	if g, ok := got.(*CompileRequest); ok {
		w := want.(*CompileRequest)
		if errText(g.GraphErr()) != errText(w.GraphErr()) {
			t.Fatalf("%s: graph error %q, encoding/json %q", what, errText(g.GraphErr()), errText(w.GraphErr()))
		}
		gg, wg := g.Graph, w.Graph
		if (gg == nil) != (wg == nil) || gg != nil && (gg.Name != wg.Name || gg.Fingerprint() != wg.Fingerprint()) {
			t.Fatalf("%s: graph %v, encoding/json %v", what, gg, wg)
		}
		g.Graph, w.Graph, g.graphErr, w.graphErr = nil, nil, nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got           %#v\n encoding/json %#v", what, got, want)
	}
}

// sameEncode fails unless the codec's bytes and error equal encoding/json's.
func sameEncode(t *testing.T, what string, v any, encode func(io.Writer) error) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := encode(&got), encodeJSON(&want, v)
	if errText(gotErr) != errText(wantErr) || got.String() != want.String() {
		t.Fatalf("%s:\n got           %q %v\n encoding/json %q %v", what, got.String(), gotErr, want.String(), wantErr)
	}
}

// fuzzValues builds a request and a response from data: its bytes as
// strings, its words as lists, and its first 8, 16 and 24 bytes as
// floats. For data of an odd length divisible by 3, with at least 24
// bytes and an even number of words, every field is set.
func fuzzValues(data []byte) (*CompileRequest, *CompileResponse) {
	text := string(data)
	words := strings.Split(text, ",")
	float := func(i int) float64 {
		if len(data) < i+8 {
			return float64(len(data)) / 7
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
	}
	ints := make([]int, 0, len(data))
	for _, b := range data {
		ints = append(ints, int(int8(b))<<(b%48))
	}
	req := &CompileRequest{
		Name: text, Workload: words[0], DFG: data, StopAfter: words[len(words)-1], Spans: ints,
		Select: &SelectConfig{C: len(data), Pdef: -len(words), Span: len(words) % 3, Epsilon: float(0), Alpha: float(8)},
		Sched:  &SchedConfig{Priority: text, Tie: words[0], Seed: int64(len(data)) << 40, SwitchPenalty: -1},
	}
	resp := &CompileResponse{
		Name: text, Nodes: len(data), EdgesCount: -len(words), Patterns: words, Cycles: len(ints) % 2,
		LowerBound: len(words) - 1, Utilization: float(0), CycleOf: ints, PatternOf: ints[:len(ints)/2],
		SchedulerPatterns: words[1:], StopAfter: words[0], Span: -1, SweptSpans: len(data)%2 == 1,
		CacheHit: len(words)%2 == 0, ElapsedMS: float(8), TraceID: text,
		Stages: []StageTimingResponse{{Stage: text, MS: float(16)}, {Stage: "", MS: 0}},
	}
	if len(data)%3 == 0 {
		resp.Census = &CensusResponse{Antichains: len(data) << 33, Classes: len(words), Span: -len(ints)}
	}
	return req, resp
}

// unsetFields returns the path of every field of v, a struct behind
// pointers, that encoding/json writes and that is zero, looking into
// nested structs and the first element of a slice of structs.
func unsetFields(v reflect.Value, path string) []string {
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	var unset []string
	for i := range v.NumField() {
		f, fv := v.Type().Field(i), v.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		name := path + "." + f.Name
		switch {
		case fv.IsZero():
			unset = append(unset, name)
		case fv.Kind() == reflect.Slice && fv.Index(0).Kind() == reflect.Struct:
			unset = append(unset, unsetFields(fv.Index(0), name+"[0]")...)
		case fv.Kind() == reflect.Pointer && fv.Elem().Kind() == reflect.Struct:
			unset = append(unset, unsetFields(fv, name)...)
		}
	}
	return unset
}

// FuzzJSONCodec holds the JSON codec's hand-written paths to
// encoding/json. Taken as a request or a response, the fuzzed body
// decodes through the codec to the value or the error encoding/json
// gives it, and when a hand-written decoder takes it alone, encoding/json
// takes it too. The scanner agrees with json.Valid, and compacts as
// json.Compact does. Values built from the body encode to
// encoding/json's bytes, or fail with its error.
func FuzzJSONCodec(f *testing.F) {
	var req, resp bytes.Buffer
	text, err := json.Marshal(generate(f, "fig4"))
	if err != nil {
		f.Fatal(err)
	}
	sample := &CompileRequest{
		Name: "full", DFG: text, StopAfter: "select", Spans: []int{0, 1, -1},
		Select: &SelectConfig{C: 3, Pdef: 2, Span: -1, Epsilon: 0.25, Alpha: 10},
		Sched:  &SchedConfig{Priority: "F1", Tie: "asc", Seed: 7, SwitchPenalty: -2},
	}
	if err := JSON.EncodeRequest(&req, sample); err != nil {
		f.Fatal(err)
	}
	if err := JSON.EncodeResponse(&resp, sampleResponse()); err != nil {
		f.Fatal(err)
	}
	// A dfg text nested as deep as encoding/json reads it inside the
	// envelope, and one level deeper.
	nested := func(depth int) string {
		return `{"dfg":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
	}
	for _, seed := range []string{
		req.String(), resp.String(), nested(maxJSONDepth - 1), nested(maxJSONDepth),
		`{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\ud800\udc00x\ud800","workload":"3dft"}`,
		"{\"name\":\"sep\u2028par\u2029\",\"trace_id\":\"\xff\xfe\xed\xa0\x80\",\"span\":0}",
		`{"name":"<&>","nodes":-0,"edges":0,"utilization":1e21,"span":1,"cache_hit":true,"elapsed_ms":1e-7}`,
		`{"name":"x","elapsed_ms":-0,"stages":[{"stage":"census","ms":1E+2}],"census":{"antichains":1,"classes":2,"span":3}}`,
		`{"Name":"x"}`, `{"workLoad":"3dft"}`, `{"name":null}`, `{"dfg":null}`, `{"select":null,"spans":null}`,
		`{"name":"a","name":"b"}`, `{"jobs":[{"workload":"3dft"}]}`, `{"name":"a"} x`, `{"name":"a"}{}`,
		`{"select":{"c":1},"select":{"pdef":2}}`, `{"census":{"antichains":1},"census":{"classes":2},"span":0}`,
		`{"select":{"c":1.0,"pdef":1e2,"span":-9223372036854775809,"epsilon":1e400}}`,
		`{"dfg":{"name":"g","nodes":[{"name":"a","color":"a"}],"edges":[]},"spans":[0,1,-1],"sched":{"seed":-7}}`,
		"{\"dfg\": {\"name\" : \"g g\",\n \"nodes\":[] } }",
		`[1,2,{"a":[true,false,null]}]`, `"\u12"`, `01`, `-`, `1.`, `1e`, "\x00", ``, ` `,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(checkJSONCodec)
}

// checkJSONCodec is FuzzJSONCodec's check of one body.
func checkJSONCodec(t *testing.T, data []byte) {
	ok, _ := validJSON(data)
	if ok != json.Valid(data) {
		t.Fatalf("validJSON %v, json.Valid %v", ok, !ok)
	}
	if ok {
		var want bytes.Buffer
		if err := json.Compact(&want, data); err != nil || string(appendCompactJSON(nil, data)) != want.String() {
			t.Fatalf("compacted %q, json.Compact %q (%v)", appendCompactJSON(nil, data), want.String(), err)
		}
	}

	// Each hand-written decoder alone: what it takes, encoding/json
	// takes to the same value.
	alone := func(read func(*scanner)) bool {
		s := scanner{data: data}
		read(&s)
		return s.done()
	}
	var gotReq, wantReq CompileRequest
	if alone(func(s *scanner) { s.request(&gotReq) }) {
		sameDecode(t, "request alone", &gotReq, &wantReq, nil, decodeStrict(bytes.NewReader(data), &wantReq))
	}
	var gotResp, wantResp CompileResponse
	if alone(func(s *scanner) { s.response(&gotResp) }) {
		sameDecode(t, "response alone", &gotResp, &wantResp, nil, json.Unmarshal(data, &wantResp))
	}

	// The codec, hand-written or not: encoding/json's answer.
	gotReq, wantReq = CompileRequest{}, CompileRequest{}
	err := JSON.DecodeRequest(bytes.NewReader(data), &gotReq)
	sameDecode(t, "request", &gotReq, &wantReq, err, referenceRequest(data, &wantReq))
	gotResp, wantResp = CompileResponse{}, CompileResponse{}
	err = JSON.DecodeResponse(bytes.NewReader(data), &gotResp)
	sameDecode(t, "response", &gotResp, &wantResp, err, json.NewDecoder(bytes.NewReader(data)).Decode(&wantResp))

	// Values built from data encode to encoding/json's bytes.
	req, resp := fuzzValues(data)
	sameEncode(t, "request", req, func(w io.Writer) error { return JSON.EncodeRequest(w, req) })
	sameEncode(t, "response", resp, func(w io.Writer) error { return JSON.EncodeResponse(w, resp) })
}

// TestJSONCodecCoversEveryField: with every field that encoding/json
// writes set, a request and a response encode by hand to encoding/json's
// bytes, and those bytes decode by hand, without falling back, to the
// same values. A field added to either message, or to a struct inside
// one, fails here until fuzzValues sets it and the hand-written reader
// and writer handle it.
func TestJSONCodecCoversEveryField(t *testing.T) {
	data := []byte(`{"name":"graph, \"h\"","nodes":[],"edges":[]}`)
	req, resp := fuzzValues(data)
	for _, v := range []any{req, resp} {
		if unset := unsetFields(reflect.ValueOf(v), reflect.TypeOf(v).Elem().Name()); len(unset) > 0 {
			t.Fatalf("fuzzValues leaves %v zero", unset)
		}
	}
	sameEncode(t, "request", req, func(w io.Writer) error { return JSON.EncodeRequest(w, req) })
	sameEncode(t, "response", resp, func(w io.Writer) error { return JSON.EncodeResponse(w, resp) })

	reqText, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var gotReq CompileRequest
	s := scanner{data: reqText}
	if s.request(&gotReq); !s.done() {
		t.Fatalf("request %s fell back to encoding/json", reqText)
	}
	if gotReq.DFG = append(json.RawMessage(nil), gotReq.DFG...); !reflect.DeepEqual(&gotReq, req) {
		t.Fatalf("request:\n got  %#v\n want %#v", &gotReq, req)
	}
	respText, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var gotResp CompileResponse
	s = scanner{data: respText}
	if s.response(&gotResp); !s.done() {
		t.Fatalf("response %s fell back to encoding/json", respText)
	}
	if !reflect.DeepEqual(&gotResp, resp) {
		t.Fatalf("response:\n got  %#v\n want %#v", &gotResp, resp)
	}
}

// TestJSONFloatsMatchReference: the response encoder writes every float
// as encoding/json does, at the edges of its exponent form too, and
// refuses NaN and ±Inf with encoding/json's error.
func TestJSONFloatsMatchReference(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 0.000001234, math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := &CompileResponse{Utilization: f, ElapsedMS: f, Stages: []StageTimingResponse{{Stage: "census", MS: f}}}
		sameEncode(t, "response", resp, func(w io.Writer) error { return JSON.EncodeResponse(w, resp) })
		req := &CompileRequest{Select: &SelectConfig{Epsilon: f, Alpha: -f}}
		sameEncode(t, "request", req, func(w io.Writer) error { return JSON.EncodeRequest(w, req) })
	}
}

// The allocation budgets of the hand-written paths, with what
// encoding/json took for the same work (go1.24). A canonical body that
// falls back to encoding/json fails the decode budgets.
const (
	// A request envelope around the 2,110 B dfg text of the seed-1 hot
	// set's 3dft: nothing but the pooled body buffer now and then under
	// the race detector. encoding/json took 17, most of them its
	// scanner's state stack as it skipped the dfg text.
	envelopeDecodeAllocs = 2
	// A hot-set response, into a pooled buffer. encoding/json took none
	// either, so this budget cannot tell the two apart; the test checks
	// the hand-written encoder takes the response instead.
	responseEncodeAllocs = 0
	// A hot-set response: its strings and one slice per list (20 with a
	// census and stages, 15 on a cache hit). encoding/json took 48 and
	// 37.
	responseDecodeAllocs = 24
)

// hotResponses is a hot-set response per shape: a full compile with its
// census and stages, and a cache hit without them.
func hotResponses(t *testing.T) []*CompileResponse {
	g := generate(t, cliutil.HotSetSpecs(1)[2])
	n := g.N()
	cycleOf := make([]int, n)
	for i := range cycleOf {
		cycleOf[i] = i / 3
	}
	full := &CompileResponse{
		Name: g.Name, Nodes: n, EdgesCount: g.M(), Patterns: []string{"aaacc", "aabcc", "abbcc", "bbccc"},
		Cycles: n / 3, LowerBound: n / 4, Utilization: 0.8333333333333334, CycleOf: cycleOf,
		PatternOf: cycleOf[:n/3], SchedulerPatterns: []string{"aabcc", "aaacc", "bbccc", "abbcc"}, Span: 1,
		Census:    &CensusResponse{Antichains: 645, Classes: 23, Span: 1},
		Stages:    []StageTimingResponse{{Stage: "census", MS: 0.412}, {Stage: "select", MS: 0.0871}, {Stage: "schedule", MS: 0.0305}},
		ElapsedMS: 0.5712, TraceID: "2cf435e5acb51602",
	}
	hit := *full
	hit.Census, hit.Stages, hit.CacheHit, hit.ElapsedMS = nil, nil, true, 0.0213
	return []*CompileResponse{full, &hit}
}

// TestJSONCodecAllocs: a canonical request envelope decodes, and a
// hot-set response encodes and decodes, within the budgets above.
func TestJSONCodecAllocs(t *testing.T) {
	g := generate(t, cliutil.HotSetSpecs(1)[0])
	text, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body := encodeRequest(t, JSON, &CompileRequest{DFG: text})
	var rd bytes.Reader
	got := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		var req CompileRequest
		body := readJSONBody(&rd)
		s := body.scanner(true)
		s.request(&req)
		if !s.done() {
			t.Fatal("a canonical request envelope fell back to encoding/json")
		}
		putBuf(body.buf)
	})
	if got > envelopeDecodeAllocs {
		t.Errorf("request envelope decode: %.0f allocs, budget %d", got, envelopeDecodeAllocs)
	}
	t.Logf("request envelope around %d B of dfg text: %.0f allocs", len(text), got)

	for _, resp := range hotResponses(t) {
		if _, ok := appendResponseJSON(nil, resp); !ok {
			t.Fatal("a hot-set response fell back to encoding/json")
		}
		var out bytes.Buffer
		if err := JSON.EncodeResponse(&out, resp); err != nil {
			t.Fatal(err)
		}
		enc := testing.AllocsPerRun(50, func() {
			out.Reset()
			if err := JSON.EncodeResponse(&out, resp); err != nil {
				t.Fatal(err)
			}
		})
		encoded := out.Bytes()
		dec := testing.AllocsPerRun(50, func() {
			rd.Reset(encoded)
			var got CompileResponse
			if err := JSON.DecodeResponse(&rd, &got); err != nil || got.Name != resp.Name {
				t.Fatal(got.Name, err)
			}
		})
		if enc > responseEncodeAllocs || dec > responseDecodeAllocs {
			t.Errorf("response with census %v: encode %.0f allocs (budget %d), decode %.0f (budget %d)",
				resp.Census != nil, enc, responseEncodeAllocs, dec, responseDecodeAllocs)
		}
		t.Logf("response of %d B, census %v: encode %.0f allocs, decode %.0f", len(encoded), resp.Census != nil, enc, dec)
	}
}
