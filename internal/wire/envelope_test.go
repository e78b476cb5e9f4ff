package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
)

// twoNodeGraph is a → b with the given graph and sink names; two calls
// with equal arguments give equal graphs, not one pointer.
func twoNodeGraph(name, sink string) *dfg.Graph {
	g := dfg.NewGraph(name)
	a := g.MustAddNode(dfg.Node{Name: "a", Color: "a"})
	b := g.MustAddNode(dfg.Node{Name: sink, Color: "b"})
	g.MustAddDep(a, b)
	return g
}

// cycle is a graph whose frame decodes but does not validate.
func cycle() *dfg.Graph {
	g := twoNodeGraph("loop", "b")
	g.MustAddDep(1, 0)
	return g
}

// TestBatchSharesEqualGraphs: in either codec, the jobs of one envelope
// whose graph bytes are equal share one decoded graph, whichever pointer
// they were encoded from; a graph that differs only in its name, or in
// one byte, is decoded on its own; and every copy of a graph that does
// not decode carries the same error.
func TestBatchSharesEqualGraphs(t *testing.T) {
	jobs := []CompileRequest{
		{Graph: twoNodeGraph("g", "b")},
		{Graph: twoNodeGraph("h", "b")}, // only the name differs
		{Graph: twoNodeGraph("g", "b"), Select: &SelectConfig{Pdef: 3}},
		{Graph: twoNodeGraph("g", "c")}, // one byte differs
		{Graph: cycle()},
		{Graph: twoNodeGraph("g", "b"), Name: "again"},
		{Graph: cycle()},
	}
	for _, c := range Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.EncodeBatch(&buf, &BatchRequest{Jobs: jobs}); err != nil {
				t.Fatal(err)
			}
			var b BatchRequest
			if err := c.DecodeBatch(&buf, &b); err != nil {
				t.Fatal(err)
			}
			got := b.Jobs
			shared := got[0].Graph
			if shared == nil || got[2].Graph != shared || got[5].Graph != shared {
				t.Errorf("equal graphs decoded to %p, %p, %p; want one pointer", shared, got[2].Graph, got[5].Graph)
			}
			for _, i := range []int{1, 3} {
				if got[i].Graph == nil || got[i].Graph == shared {
					t.Errorf("job %d: graph %p shared with job 0", i, got[i].Graph)
				}
			}
			if got[1].Graph.Fingerprint() != shared.Fingerprint() || got[1].Graph.Name != "h" {
				t.Errorf("renamed graph decoded as %q, fingerprint %s", got[1].Graph.Name, got[1].Graph.Fingerprint())
			}
			e4, e6 := got[4].GraphErr(), got[6].GraphErr()
			if e4 == nil || e6 == nil || e4.Error() != e6.Error() || !strings.Contains(e4.Error(), "dependency cycle") {
				t.Errorf("undecodable copies: errors %v and %v, want one dependency-cycle error", e4, e6)
			}
		})
	}
}

// TestEncodeBatchMatchesJobsAlone: an encoded envelope is byte-identical
// to its jobs encoded one by one, whether or not they repeat a graph, so
// encoding a shared graph once changes nothing on the wire.
func TestEncodeBatchMatchesJobsAlone(t *testing.T) {
	g1, g2 := generate(t, "fig4"), generate(t, "3dft")
	envelopes := map[string][]CompileRequest{
		"distinct": {{Graph: g1}, {Graph: g2, Name: "two"}, {Workload: "fft:8"}},
		"repeats": {
			{Graph: g1, Select: &SelectConfig{Pdef: 1}}, {Graph: g2}, {Graph: g1, Select: &SelectConfig{Pdef: 2}},
			{Graph: g1, Name: "again", TraceID: "t1"}, {Graph: g2, Deadline: 5}, {Workload: "3dft"},
		},
	}
	for _, c := range Codecs() {
		for name, jobs := range envelopes {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				var alone [][]byte
				for i := range jobs {
					var buf bytes.Buffer
					if err := c.EncodeRequest(&buf, &jobs[i]); err != nil {
						t.Fatal(err)
					}
					alone = append(alone, buf.Bytes())
				}
				var want []byte
				if c == Binary {
					want = binary.AppendUvarint(append([]byte(batchMagic), binaryVersion), uint64(len(jobs)))
					for _, frame := range alone {
						want = append(binary.AppendUvarint(want, uint64(len(frame))), frame...)
					}
				} else {
					for i := range alone {
						alone[i] = bytes.TrimSuffix(alone[i], []byte("\n"))
					}
					want = []byte(`{"jobs":[` + string(bytes.Join(alone, []byte(","))) + "]}\n")
				}
				var got bytes.Buffer
				if err := c.EncodeBatch(&got, &BatchRequest{Jobs: jobs}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("envelope of %d bytes differs from its %d jobs encoded alone (%d bytes)", got.Len(), len(jobs), len(want))
				}
			})
		}
	}
}

// perJobAllocs bounds what decoding one job of an envelope allocates
// besides its graph: its select config. envelopeAllocs bounds what the
// envelope itself takes, its job slice and graph memos (3 measured), with
// room for the race detector's sync.Pool, which drops some of the
// buffers put back, so a body is now and then read into a fresh one.
const (
	perJobAllocs   = 1
	envelopeAllocs = 8
)

// TestDecodeBatchAllocs: decoding a design-space envelope — each of the
// first 8 seed-1 hot-set graphs at select.pdef 1 to 8, 64 jobs —
// allocates what its 8 distinct graphs take to decode alone, plus a
// constant per job and per envelope; decoding every job's graph would
// take 8 times the first term, and reading the body into a fresh buffer
// would add several allocations as it grew.
func TestDecodeBatchAllocs(t *testing.T) {
	var graphs []*dfg.Graph
	for _, spec := range cliutil.HotSetSpecs(1)[:8] {
		graphs = append(graphs, generate(t, spec))
	}
	var jobs []CompileRequest
	for pdef := 1; pdef <= 8; pdef++ {
		for _, g := range graphs {
			jobs = append(jobs, CompileRequest{Graph: g, Select: &SelectConfig{Pdef: pdef}})
		}
	}
	var graphAllocs float64
	for _, g := range graphs {
		frame := g.AppendBinary(nil)
		graphAllocs += testing.AllocsPerRun(20, func() {
			if _, err := decodeBinaryGraph(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	var env bytes.Buffer
	if err := Binary.EncodeBatch(&env, &BatchRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		var b BatchRequest
		if err := Binary.DecodeBatch(bytes.NewReader(env.Bytes()), &b); err != nil {
			t.Fatal(err)
		}
	})
	budget := graphAllocs + perJobAllocs*float64(len(jobs)) + envelopeAllocs
	if got > budget {
		t.Errorf("decoding %d jobs of %d graphs: %.0f allocs, budget %.0f (%.0f for the graphs alone)", len(jobs), len(graphs), got, budget, graphAllocs)
	}
	t.Logf("%d jobs of %d graphs: %.0f allocs; the graphs alone %.0f", len(jobs), len(graphs), got, graphAllocs)
}

func generate(t testing.TB, spec string) *dfg.Graph {
	t.Helper()
	g, err := cliutil.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzDecodeBatch holds the binary envelope decoder to the single-request
// decoder on an envelope that repeats two fuzzed job frames: the
// envelope decodes exactly when every frame decodes alone, each job then
// carries what its frame decodes to alone — a graph with the same
// fingerprint, name, node count and edge count, or the same error text —
// and equal frames share one graph. A frame that is valid JSON also goes
// through a JSON envelope as an inline dfg, held to the same rules.
func FuzzDecodeBatch(f *testing.F) {
	g := generate(f, "fig4")
	text, err := json.Marshal(g)
	if err != nil {
		f.Fatal(err)
	}
	frame := func(req CompileRequest) []byte {
		var buf bytes.Buffer
		if err := Binary.EncodeRequest(&buf, &req); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	withGraph := frame(CompileRequest{Graph: g, Select: &SelectConfig{Pdef: 2}})
	f.Add(withGraph, frame(CompileRequest{Graph: g, Name: "other"}))
	f.Add(frame(CompileRequest{Graph: cycle()}), frame(CompileRequest{DFG: text}))
	f.Add(frame(CompileRequest{DFG: []byte("null")}), frame(CompileRequest{Workload: "3dft"}))
	f.Add(withGraph[:len(withGraph)-3], withGraph)
	f.Add(text, []byte(`{"name":"x","nodes":[{"name":"a","color":"a"}],"edges":[[0,0]]}`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		frames := [][]byte{a, b, a, b, a}
		env := binary.AppendUvarint(append([]byte(batchMagic), binaryVersion), uint64(len(frames)))
		for _, fr := range frames {
			env = append(binary.AppendUvarint(env, uint64(len(fr))), fr...)
		}
		checkBatch(t, Binary, env, frames, func(fr []byte) []byte { return fr })

		if json.Valid(a) && json.Valid(b) {
			var jobs []string
			for _, fr := range frames {
				jobs = append(jobs, `{"dfg":`+string(fr)+`}`)
			}
			env := []byte(`{"jobs":[` + strings.Join(jobs, ",") + `]}`)
			checkBatch(t, JSON, env, frames, func(fr []byte) []byte { return []byte(`{"dfg":` + string(fr) + `}`) })
		}
	})
}

// checkBatch decodes env in codec c and each of frames alone, as single
// request bodies body(frame), and holds the envelope's jobs to them.
func checkBatch(t *testing.T, c Codec, env []byte, frames [][]byte, body func([]byte) []byte) {
	t.Helper()
	var b BatchRequest
	err := c.DecodeBatch(bytes.NewReader(env), &b)
	alone := make([]CompileRequest, len(frames))
	var aloneErr error
	for i, fr := range frames {
		if err := c.DecodeRequest(bytes.NewReader(body(fr)), &alone[i]); err != nil && aloneErr == nil {
			aloneErr = err
		}
	}
	if (err == nil) != (aloneErr == nil) {
		t.Fatalf("%s: envelope error %v, alone %v", c.Name(), err, aloneErr)
	}
	if err != nil {
		return
	}
	if len(b.Jobs) != len(frames) {
		t.Fatalf("%s: %d jobs from %d frames", c.Name(), len(b.Jobs), len(frames))
	}
	for i := range frames {
		got, want := &b.Jobs[i], &alone[i]
		if ge, we := errText(got.GraphErr()), errText(want.GraphErr()); ge != we {
			t.Fatalf("%s job %d: graph error %q, alone %q", c.Name(), i, ge, we)
		}
		switch gg, wg := got.Graph, want.Graph; {
		case (gg == nil) != (wg == nil):
			t.Fatalf("%s job %d: graph %v, alone %v", c.Name(), i, gg, wg)
		case gg != nil && (gg.Fingerprint() != wg.Fingerprint() || gg.Name != wg.Name || gg.N() != wg.N() || gg.M() != wg.M()):
			t.Fatalf("%s job %d: graph %q (%d nodes, %d edges) differs from %q (%d, %d) alone", c.Name(), i, gg.Name, gg.N(), gg.M(), wg.Name, wg.N(), wg.M())
		}
		for j := range i {
			if bytes.Equal(frames[i], frames[j]) && got.Graph != b.Jobs[j].Graph {
				t.Fatalf("%s: equal frames %d and %d decoded to two graphs", c.Name(), j, i)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
