package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
)

func sampleRequest(t *testing.T) *CompileRequest {
	t.Helper()
	g, err := cliutil.Generate("fig4")
	if err != nil {
		t.Fatal(err)
	}
	return &CompileRequest{
		Name:      "full",
		Workload:  "",
		Graph:     g,
		Select:    &SelectConfig{C: 3, Pdef: 2, Span: -1, Epsilon: 0.25, Alpha: 10},
		Sched:     &SchedConfig{Priority: "F1", Tie: "asc", Seed: 7, SwitchPenalty: -2},
		StopAfter: "select",
		Spans:     []int{0, 1, -1},
	}
}

func sampleResponse() *CompileResponse {
	return &CompileResponse{
		Name:              "fig4",
		Nodes:             5,
		EdgesCount:        5,
		Patterns:          []string{"(a)(b)", "(b)(c)"},
		Cycles:            3,
		LowerBound:        2,
		Utilization:       0.83,
		CycleOf:           []int{0, 0, 1, 2, 2},
		PatternOf:         []int{1, 0, 1},
		SchedulerPatterns: []string{"(b)(c)", "(a)(b)"},
		StopAfter:         "schedule",
		Span:              -1,
		SweptSpans:        true,
		Census:            &CensusResponse{Antichains: 12, Classes: 4, Span: 2},
		Stages: []StageTimingResponse{
			{Stage: "census", MS: 0.4},
			{Stage: "select", MS: 1.25},
		},
		CacheHit:  true,
		ElapsedMS: 1.75,
		TraceID:   "a1b2c3d4e5f60718",
	}
}

// reqEqual compares requests with graphs by fingerprint (Graph internals
// carry lazy caches that defeat DeepEqual).
func reqEqual(t *testing.T, a, b *CompileRequest) {
	t.Helper()
	ac, bc := *a, *b
	ac.Graph, bc.Graph = nil, nil
	if !reflect.DeepEqual(ac, bc) {
		t.Fatalf("request fields diverged:\n a: %+v\n b: %+v", ac, bc)
	}
	switch {
	case a.Graph == nil && b.Graph == nil:
	case a.Graph == nil || b.Graph == nil:
		t.Fatalf("graph presence diverged: %v vs %v", a.Graph, b.Graph)
	case a.Graph.Fingerprint() != b.Graph.Fingerprint():
		t.Fatal("graph fingerprint diverged")
	}
}

func TestCodecRoundTrips(t *testing.T) {
	for _, c := range Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			req := sampleRequest(t)
			var buf bytes.Buffer
			if err := c.EncodeRequest(&buf, req); err != nil {
				t.Fatal(err)
			}
			var gotReq CompileRequest
			if err := c.DecodeRequest(&buf, &gotReq); err != nil {
				t.Fatal(err)
			}
			// JSON lowers Graph to DFG; normalise both sides to a decoded
			// graph before comparing.
			wantReq := *req
			if gotReq.Graph == nil && len(gotReq.DFG) > 0 {
				var g dfg.Graph
				if err := json.Unmarshal(gotReq.DFG, &g); err != nil {
					t.Fatal(err)
				}
				gotReq.Graph, gotReq.DFG = &g, nil
				wantReq.DFG = nil
			}
			reqEqual(t, &wantReq, &gotReq)

			resp := sampleResponse()
			buf.Reset()
			if err := c.EncodeResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			var gotResp CompileResponse
			if err := c.DecodeResponse(&buf, &gotResp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp, &gotResp) {
				t.Fatalf("response diverged:\n want %+v\n got  %+v", resp, &gotResp)
			}
		})
	}
}

func TestCodecBatchRoundTrip(t *testing.T) {
	for _, c := range Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			b := &BatchRequest{Jobs: []CompileRequest{
				{Workload: "fig4"},
				{Workload: "fft:4", StopAfter: "census"},
				{Name: "third", Workload: "random:seed=1,n=16", Spans: []int{0, 1}},
			}}
			var buf bytes.Buffer
			if err := c.EncodeBatch(&buf, b); err != nil {
				t.Fatal(err)
			}
			var got BatchRequest
			if err := c.DecodeBatch(&buf, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, &got) {
				t.Fatalf("batch diverged:\n want %+v\n got  %+v", b, &got)
			}
		})
	}
}

func TestCodecItemStream(t *testing.T) {
	for _, c := range Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			items := []BatchItem{
				{Index: 2, Status: 200, Result: sampleResponse()},
				{Index: 0, Status: 429, Error: "job queue full"},
				{Index: 1, Status: 400, Error: "unknown workload"},
			}
			var buf bytes.Buffer
			iw := c.NewItemWriter(&buf)
			for i := range items {
				if err := iw.WriteItem(&items[i]); err != nil {
					t.Fatal(err)
				}
			}
			ir := c.NewItemReader(&buf)
			var got []BatchItem
			for {
				var it BatchItem
				err := ir.ReadItem(&it)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, it)
			}
			if !reflect.DeepEqual(items, got) {
				t.Fatalf("item stream diverged:\n want %+v\n got  %+v", items, got)
			}
		})
	}
}

// TestCrossCodecCatalog pushes every catalog workload's graph through
// both codecs inside a request and checks the fingerprints agree — the
// interchangeability contract the server relies on when mixing formats.
func TestCrossCodecCatalog(t *testing.T) {
	for _, w := range cliutil.Catalog() {
		g, err := cliutil.Generate(w.Example)
		if err != nil {
			t.Fatalf("%s: %v", w.Example, err)
		}
		req := &CompileRequest{Name: w.Name, Graph: g}

		var viaJSON, viaBin bytes.Buffer
		if err := JSON.EncodeRequest(&viaJSON, req); err != nil {
			t.Fatalf("%s: json encode: %v", w.Example, err)
		}
		if err := Binary.EncodeRequest(&viaBin, req); err != nil {
			t.Fatalf("%s: binary encode: %v", w.Example, err)
		}
		var fromJSON, fromBin CompileRequest
		if err := JSON.DecodeRequest(&viaJSON, &fromJSON); err != nil {
			t.Fatalf("%s: json decode: %v", w.Example, err)
		}
		if err := Binary.DecodeRequest(&viaBin, &fromBin); err != nil {
			t.Fatalf("%s: binary decode: %v", w.Example, err)
		}
		if fromJSON.Graph == nil || fromJSON.Graph.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%s: JSON codec changed the graph fingerprint", w.Example)
		}
		if fromBin.Graph == nil || fromBin.Graph.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%s: binary codec changed the graph fingerprint", w.Example)
		}
	}
}

func TestRegistry(t *testing.T) {
	cases := []struct {
		name, ct string
		want     Codec
	}{
		{"json", "application/json", JSON},
		{"json", "application/json; charset=utf-8", JSON},
		{"json", " Application/JSON ", JSON},
		{"binary", "application/x-mpsched-bin", Binary},
	}
	for _, tc := range cases {
		c, ok := ByName(tc.name)
		if !ok || c != tc.want {
			t.Fatalf("ByName(%q) = %v, %v", tc.name, c, ok)
		}
		c, ok = ByContentType(tc.ct)
		if !ok || c != tc.want {
			t.Fatalf("ByContentType(%q) = %v, %v", tc.ct, c, ok)
		}
	}
	if _, ok := ByName("msgpack"); ok {
		t.Fatal("ByName accepted an unknown codec")
	}
	if _, ok := ByContentType("text/plain"); ok {
		t.Fatal("ByContentType accepted an unknown type")
	}
}

// TestJSONWireShapeUnchanged pins the JSON codec to the pre-codec wire
// bytes: unknown fields rejected, graph carried under "dfg", no HTML
// escaping — existing curl scripts must not notice the refactor.
func TestJSONWireShapeUnchanged(t *testing.T) {
	var req CompileRequest
	err := JSON.DecodeRequest(strings.NewReader(`{"workload":"fig4","bogus":1}`), &req)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	if err := JSON.DecodeRequest(strings.NewReader(`{"workload":"fft:8","stop_after":"census"}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.Workload != "fft:8" || req.StopAfter != "census" {
		t.Fatalf("decoded %+v", req)
	}

	var buf bytes.Buffer
	if err := JSON.EncodeResponse(&buf, &CompileResponse{Name: "<g>", Span: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"<g>"`) {
		t.Fatalf("HTML escaping crept in: %s", buf.String())
	}
}

func TestBinaryHostileInput(t *testing.T) {
	// A valid request to truncate and mangle.
	var buf bytes.Buffer
	if err := Binary.EncodeRequest(&buf, sampleRequest(t)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XXX\x01\x00\x00\x00\x00")},
		{"bad version", []byte("MPQ\x07\x00\x00\x00\x00")},
		{"unknown flags", []byte("MPQ\x01\xff\x00\x00\x00")},
		{"truncated", valid[:len(valid)/3]},
		{"trailing bytes", append(append([]byte{}, valid...), 1, 2, 3)},
		{"hostile string count", []byte("MPQ\x01\x00\xff\xff\xff\xff\x0f")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req CompileRequest
			err := Binary.DecodeRequest(bytes.NewReader(tc.data), &req)
			if err == nil {
				t.Fatal("decoded without error")
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("got %v, want errors.Is(err, ErrFormat)", err)
			}
		})
	}

	// A hostile graph inside an otherwise valid request must surface the
	// dfg typed error, not a panic or silent acceptance: as the request's
	// own graph fault, with the body around it decoded.
	g, err := cliutil.Generate("fig4")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Binary.EncodeRequest(&buf, &CompileRequest{Graph: g}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the embedded graph frame (past magic+version+
	// flags+3 empty strings+4-byte length = byte 11 onward).
	data[len(data)-1] ^= 0xff
	var req CompileRequest
	if err := Binary.DecodeRequest(bytes.NewReader(data), &req); err != nil {
		t.Fatalf("a mangled embedded graph failed the body: %v", err)
	}
	if req.GraphErr() == nil || req.Graph != nil {
		t.Fatal("mangled embedded graph decoded without error")
	}
}

func TestBinaryItemStreamTruncation(t *testing.T) {
	var buf bytes.Buffer
	iw := Binary.NewItemWriter(&buf)
	if err := iw.WriteItem(&BatchItem{Index: 0, Status: 200, Result: sampleResponse()}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	ir := Binary.NewItemReader(bytes.NewReader(data[:len(data)-4]))
	var it BatchItem
	if err := ir.ReadItem(&it); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated frame: got %v, want ErrFormat", err)
	}

	// An absurd frame length must be rejected before allocation, and one
	// that overflows a uvarint is as malformed.
	for name, length := range map[string][]byte{
		"huge frame length":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"overflowing 10th byte":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"uvarint of eleven bytes": bytes.Repeat([]byte{0xff}, 11),
		"truncated frame length":  {0xff},
	} {
		ir = Binary.NewItemReader(bytes.NewReader(length))
		if err := ir.ReadItem(&it); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}

	// The end of the stream stays io.EOF, and a read error passes through.
	if err := Binary.NewItemReader(bytes.NewReader(nil)).ReadItem(&it); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	broken := errors.New("connection reset")
	if err := Binary.NewItemReader(iotest.ErrReader(broken)).ReadItem(&it); err != broken {
		t.Errorf("failing stream: got %v, want %v", err, broken)
	}
}

// FuzzBinaryResponse: the binary response decoder and the item-stream
// reader, which the router and the client read backend answers with,
// never panic, and what they accept re-encodes to bytes that decode and
// re-encode identically.
func FuzzBinaryResponse(f *testing.F) {
	bare := &CompileResponse{Name: "3dft", Nodes: 12, Cycles: 7, StopAfter: "census"}
	for _, resp := range []*CompileResponse{sampleResponse(), bare} {
		f.Add(encodeBinaryResponse(f, resp))
	}
	f.Add(encodeItems(f, []BatchItem{
		{Index: 0, Status: 200, Result: sampleResponse()},
		{Index: 3, Status: 400, Error: "select.pdef: -1 < 0"},
		{Index: 1, Status: 200, Result: bare},
		{Index: 2, Status: 429, Error: "batch capacity full (1 in flight); retry later"},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp CompileResponse
		if Binary.DecodeResponse(bytes.NewReader(data), &resp) == nil {
			enc := encodeBinaryResponse(t, &resp)
			var again CompileResponse
			if err := Binary.DecodeResponse(bytes.NewReader(enc), &again); err != nil {
				t.Fatalf("decode a re-encoded response: %v", err)
			}
			if !bytes.Equal(encodeBinaryResponse(t, &again), enc) {
				t.Fatal("a re-encoded response re-encodes differently")
			}
		}

		items, _ := readItems(data)
		if len(items) == 0 {
			return
		}
		enc := encodeItems(t, items)
		again, err := readItems(enc)
		if err != io.EOF || len(again) != len(items) {
			t.Fatalf("re-encoded stream: %d of %d items, then %v", len(again), len(items), err)
		}
		if !bytes.Equal(encodeItems(t, again), enc) {
			t.Fatal("a re-encoded item stream re-encodes differently")
		}
	})
}

func encodeBinaryResponse(t testing.TB, resp *CompileResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Binary.EncodeResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeItems(t testing.TB, items []BatchItem) []byte {
	t.Helper()
	var buf bytes.Buffer
	iw := Binary.NewItemWriter(&buf)
	for i := range items {
		if err := iw.WriteItem(&items[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readItems reads a binary item stream to its end, returning the items
// read and the error that ended it.
func readItems(stream []byte) ([]BatchItem, error) {
	ir := Binary.NewItemReader(bytes.NewReader(stream))
	var items []BatchItem
	for {
		var it BatchItem
		if err := ir.ReadItem(&it); err != nil {
			return items, err
		}
		items = append(items, it)
	}
}

// TestTraceIDFraming pins how each codec carries the trace ID: the
// binary codec frames the request's ID inline (batch envelopes tag jobs
// without headers), while the JSON request body never carries it — HTTP
// moves it in the X-Mpsched-Trace header, so a traced request still
// decodes under DisallowUnknownFields.
func TestTraceIDFraming(t *testing.T) {
	req := &CompileRequest{Workload: "fig4", TraceID: "deadbeef00112233"}

	var buf bytes.Buffer
	if err := Binary.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	var fromBin CompileRequest
	if err := Binary.DecodeRequest(&buf, &fromBin); err != nil {
		t.Fatal(err)
	}
	if fromBin.TraceID != req.TraceID {
		t.Fatalf("binary dropped the trace ID: %q", fromBin.TraceID)
	}

	buf.Reset()
	if err := JSON.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "deadbeef") {
		t.Fatalf("trace ID leaked into the JSON request body: %s", buf.String())
	}

	// Batch envelopes carry per-job IDs through the binary codec.
	b := &BatchRequest{Jobs: []CompileRequest{
		{Workload: "fig4", TraceID: "job0trace"},
		{Workload: "fft:4"},
	}}
	buf.Reset()
	if err := Binary.EncodeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	var gotB BatchRequest
	if err := Binary.DecodeBatch(&buf, &gotB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, &gotB) {
		t.Fatalf("batch trace IDs diverged:\n want %+v\n got  %+v", b, &gotB)
	}
}

// TestDeadlineFraming pins how each codec carries the request deadline:
// like the trace ID, the binary codec frames it inline (so each batched
// job keeps its own budget) while JSON bodies never carry it — HTTP
// moves it in the X-Mpsched-Deadline header.
func TestDeadlineFraming(t *testing.T) {
	req := &CompileRequest{Workload: "fig4", Deadline: 250 * time.Millisecond}

	var buf bytes.Buffer
	if err := Binary.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	var fromBin CompileRequest
	if err := Binary.DecodeRequest(&buf, &fromBin); err != nil {
		t.Fatal(err)
	}
	if fromBin.Deadline != req.Deadline {
		t.Fatalf("binary deadline = %v, want %v", fromBin.Deadline, req.Deadline)
	}

	buf.Reset()
	if err := JSON.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "eadline") {
		t.Fatalf("deadline leaked into the JSON request body: %s", buf.String())
	}

	// Batch envelopes carry per-job budgets through the binary codec.
	b := &BatchRequest{Jobs: []CompileRequest{
		{Workload: "fig4", Deadline: 100 * time.Millisecond},
		{Workload: "fft:4"},
	}}
	buf.Reset()
	if err := Binary.EncodeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	var gotB BatchRequest
	if err := Binary.DecodeBatch(&buf, &gotB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, &gotB) {
		t.Fatalf("batch deadlines diverged:\n want %+v\n got  %+v", b, &gotB)
	}
}

func TestZeroValueRoundTrip(t *testing.T) {
	for _, c := range Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.EncodeRequest(&buf, &CompileRequest{}); err != nil {
				t.Fatal(err)
			}
			var req CompileRequest
			if err := c.DecodeRequest(&buf, &req); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(req, CompileRequest{}) {
				t.Fatalf("zero request round-tripped to %+v", req)
			}
			buf.Reset()
			if err := c.EncodeResponse(&buf, &CompileResponse{}); err != nil {
				t.Fatal(err)
			}
			var resp CompileResponse
			if err := c.DecodeResponse(&buf, &resp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp, CompileResponse{}) {
				t.Fatalf("zero response round-tripped to %+v", resp)
			}
		})
	}
}

func TestParseDeadline(t *testing.T) {
	cases := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{"", 0, false},
		{"250ms", 250 * time.Millisecond, false},
		{"1.5s", 1500 * time.Millisecond, false},
		{"250", 250 * time.Millisecond, false}, // bare int = ms
		{"-5ms", -time.Nanosecond, false},      // expired budgets normalise to one negative sentinel
		{"0", -time.Nanosecond, false},         // explicit zero = exhausted, not "no deadline"
		{"0ms", -time.Nanosecond, false},
		{"soon", 0, true},
		{"12parsecs", 0, true},
	}
	for _, c := range cases {
		got, err := ParseDeadline(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseDeadline(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseDeadline(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFormatDeadlineRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 3 * time.Second} {
		got, err := ParseDeadline(FormatDeadline(d))
		if err != nil || got != d {
			t.Fatalf("round trip %v: got %v, err %v", d, got, err)
		}
	}
}
