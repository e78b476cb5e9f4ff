package wire

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestJSONBodyEndsAfterItsValue: a JSON request or batch body may be
// followed by whitespace only, as a binary one may be followed by
// nothing; a second value or stray text fails the body, and a read error
// met while looking for the end passes through unwrapped. An NDJSON item
// stream still reads value after value.
func TestJSONBodyEndsAfterItsValue(t *testing.T) {
	decoders := map[string]func(io.Reader) error{
		"request": func(r io.Reader) error { return JSON.DecodeRequest(r, new(CompileRequest)) },
		"batch":   func(r io.Reader) error { return JSON.DecodeBatch(r, new(BatchRequest)) },
	}
	bodies := map[string]string{
		"request": `{"workload":"3dft"}`,
		"batch":   `{"jobs":[{"workload":"3dft"}]}`,
	}
	for what, decode := range decoders {
		body := bodies[what]
		for _, tail := range []string{"", "\n", " \r\n\t "} {
			if err := decode(strings.NewReader(body + tail)); err != nil {
				t.Errorf("%s followed by %q: %v", what, tail, err)
			}
		}
		for _, tail := range []string{` {"workload":"fir:8,2"}`, " 1", "trailing", " tru", "\n}", "]"} {
			if err := decode(strings.NewReader(body + tail)); !errors.Is(err, errTrailingJSON) {
				t.Errorf("%s followed by %q: %v, want %v", what, tail, err, errTrailingJSON)
			}
		}
		// The limit runs out in the whitespace after the value.
		rest := strings.NewReader(body + strings.Repeat(" ", 4096))
		limited := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(rest), int64(len(body)+1024))
		var tooLarge *http.MaxBytesError
		if err := decode(limited); !errors.As(err, &tooLarge) {
			t.Errorf("%s over the body limit: %v, want *http.MaxBytesError", what, err)
		}
	}

	var stream bytes.Buffer
	iw := JSON.NewItemWriter(&stream)
	for i := 0; i < 2; i++ {
		if err := iw.WriteItem(&BatchItem{Index: i, Status: http.StatusOK}); err != nil {
			t.Fatal(err)
		}
	}
	ir := JSON.NewItemReader(&stream)
	for i := 0; i < 2; i++ {
		var it BatchItem
		if err := ir.ReadItem(&it); err != nil || it.Index != i {
			t.Fatalf("item %d: %+v, %v", i, it, err)
		}
	}
}

// requestBytes is a request as the binary codec frames it, graph and all,
// with the graph's fingerprint recomputed from its nodes: what a decoded
// request holds, as bytes that cannot alias any buffer.
func requestBytes(t *testing.T, req *CompileRequest) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Binary.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if g := req.Graph; g != nil {
		g.SetOutput(0, g.Node(0).Output) // drops the cached hash
		buf.WriteString(g.Fingerprint())
	}
	return buf.String()
}

// TestDecodedBatchOwnsItsBytes: a decoded envelope shares no memory with
// the buffer it was decoded from, so the buffer can go back to the pool.
// Envelope A decodes from a buffer, envelope B then decodes from the same
// buffer, and the buffer is overwritten; the graphs, names, fingerprints
// and trace IDs of both envelopes' jobs stay as they were decoded.
func TestDecodedBatchOwnsItsBytes(t *testing.T) {
	g, h := generate(t, "3dft"), generate(t, "fir:12,2")
	text, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	envelope := func(jobs ...CompileRequest) []byte {
		var buf bytes.Buffer
		if err := Binary.EncodeBatch(&buf, &BatchRequest{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := envelope(
		CompileRequest{Name: "a0", Graph: g, TraceID: "trace-a0", Workload: "3dft"},
		CompileRequest{Name: "a1", Graph: g, TraceID: "trace-a1", Sched: &SchedConfig{Priority: "F1"}},
		CompileRequest{Name: "a2", DFG: text, TraceID: "trace-a2"},
	)
	b := envelope(
		CompileRequest{Name: "b0", Graph: h, TraceID: "trace-b0"},
		CompileRequest{Name: "b1", Graph: g, TraceID: "trace-b1"},
	)

	buf := make([]byte, max(len(a), len(b)))
	decode := func(env []byte) ([]CompileRequest, []string) {
		var dec BatchRequest
		if err := decodeBatch(buf[:copy(buf, env)], &dec, nil); err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := range dec.Jobs {
			if err := dec.Jobs[i].GraphErr(); err != nil {
				t.Fatal(err)
			}
			want = append(want, requestBytes(t, &dec.Jobs[i]))
		}
		return dec.Jobs, want
	}
	jobsA, wantA := decode(a)
	jobsB, wantB := decode(b)
	for i := range buf {
		buf[i] = 0xa5
	}
	for name, jobs := range map[string][]CompileRequest{"A": jobsA, "B": jobsB} {
		want := map[string][]string{"A": wantA, "B": wantB}[name]
		for i := range jobs {
			if got := requestBytes(t, &jobs[i]); got != want[i] {
				t.Errorf("envelope %s job %d (%s) changed with the buffer it was decoded from", name, i, jobs[i].Name)
			}
		}
	}
}

// TestItemReaderItemsOwnTheirBytes: the binary item reader reads every
// frame of a stream into one buffer, through a buffered reader it takes
// from a pool and gives back when the stream ends. An item it returned
// stays as it was decoded when later frames, and then junk, overwrite
// that buffer, and when a second stream is read through the recycled
// reader; a reader whose stream has ended keeps answering io.EOF without
// touching the reader it gave back.
func TestItemReaderItemsOwnTheirBytes(t *testing.T) {
	first := sampleResponse()
	second := sampleResponse()
	second.Name, second.TraceID, second.Patterns = "second", "trace-2", []string{"ccc", "dd"}
	third := sampleResponse()
	third.Name, third.CycleOf = "third", []int{4, 3, 2, 1, 0}
	streamOf := func(items ...*BatchItem) []byte {
		var stream bytes.Buffer
		iw := Binary.NewItemWriter(&stream)
		for i, it := range items {
			if err := iw.WriteItem(it); err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
		}
		return stream.Bytes()
	}
	streamA := streamOf(
		&BatchItem{Index: 0, Status: http.StatusOK, Result: first},
		&BatchItem{Index: 1, Status: http.StatusBadRequest, Error: "job 1 failed"},
		&BatchItem{Index: 2, Status: http.StatusOK, Result: second},
	)
	streamB := streamOf(
		&BatchItem{Index: 0, Status: http.StatusOK, Result: third},
		&BatchItem{Index: 1, Status: http.StatusTooManyRequests, Error: "job 1 shed"},
	)
	itemBytes := func(it *BatchItem) string {
		var buf bytes.Buffer
		if err := Binary.NewItemWriter(&buf).WriteItem(it); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	readAll := func(ir ItemReader) ([]BatchItem, []string) {
		var items []BatchItem
		var want []string
		for {
			var it BatchItem
			err := ir.ReadItem(&it)
			if err == io.EOF {
				return items, want
			}
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, it)
			want = append(want, itemBytes(&it))
		}
	}

	// Stream B goes through the reader stream A gave back; the race
	// detector's pool drops some of what is put, so retry until it does.
	var irA, irB ItemReader
	var itemsA []BatchItem
	var wantA []string
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("no stream went through the reader the stream before it gave back")
		}
		irA = Binary.NewItemReader(bytes.NewReader(streamA))
		br := irA.(*binItemReader).r
		itemsA, wantA = readAll(irA)
		irB = Binary.NewItemReader(bytes.NewReader(streamB))
		if irB.(*binItemReader).r == br {
			break
		}
		readAll(irB)
	}
	var it BatchItem
	if err := irB.ReadItem(&it); err != nil || itemBytes(&it) != itemBytes(&BatchItem{Index: 0, Status: http.StatusOK, Result: third}) {
		t.Fatalf("stream B item 0 through the recycled reader: %+v, %v", it, err)
	}
	// Stream A has ended: reading it again must not take stream B's bytes.
	if err := irA.ReadItem(new(BatchItem)); err != io.EOF {
		t.Fatalf("stream A after its end: %v, want io.EOF", err)
	}
	itemsB, wantB := readAll(irB)
	itemsB, wantB = append([]BatchItem{it}, itemsB...), append([]string{itemBytes(&it)}, wantB...)
	if len(itemsA) != 3 || len(itemsB) != 2 {
		t.Fatalf("read %d and %d items, want 3 and 2", len(itemsA), len(itemsB))
	}

	for _, ir := range []ItemReader{irA, irB} {
		frame := ir.(*binItemReader).frame
		frame = frame[:cap(frame)]
		for i := range frame {
			frame[i] = 0xa5
		}
	}
	for name, items := range map[string][]BatchItem{"A": itemsA, "B": itemsB} {
		want := map[string][]string{"A": wantA, "B": wantB}[name]
		for i := range items {
			if got := itemBytes(&items[i]); got != want[i] {
				t.Errorf("stream %s item %d changed with the reader's buffers", name, i)
			}
		}
	}
}
