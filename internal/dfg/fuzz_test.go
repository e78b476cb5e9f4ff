package dfg

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzUnmarshalGraph feeds arbitrary bytes through the JSON decoder — the
// path network clients reach via the mpschedd compile service. The decoder
// must never panic and must agree with the per-element reference decoder
// (reference_test.go): the same accept/reject decision and error text,
// and for accepted input the same nodes, Succs/Preds order and reference
// fingerprint. Whatever it accepts must also validate cleanly and survive
// a marshal/unmarshal round trip with the fingerprint intact.
func FuzzUnmarshalGraph(f *testing.F) {
	// Well-formed seeds.
	f.Add([]byte(`{"name":"g","nodes":[{"name":"n0","color":"a"},{"name":"n1","color":"b"}],"edges":[[0,1]]}`))
	f.Add([]byte(`{"name":"sem","nodes":[{"name":"n0","color":"a","op":"add","args":[{"input":"x"},{"const":2}],"output":"y"}],"edges":[]}`))
	// Hostile seeds: out-of-range edge, out-of-range operand, duplicate
	// names, cycle, empty operand, bad op, wrong shapes.
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a"}],"edges":[[0,7]]}`))
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a"}],"edges":[[-1,0]]}`))
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a","op":"add","args":[{"node":99},{"node":-3}]}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"dup","color":"a"},{"name":"dup","color":"b"}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a"},{"name":"n1","color":"a"}],"edges":[[0,1],[1,0]]}`))
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a"}],"edges":[[0,0]]}`))
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a","op":"add","args":[{}]}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n0","color":"a","op":"frobnicate"}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"","color":""}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var direct Graph
		err := direct.UnmarshalJSON(data)
		ref, refErr := referenceUnmarshalJSON(data)
		requireMatchesReference(t, &direct, err, ref, refErr)

		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected — the only other acceptable outcome is below
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted a graph that fails Validate: %v\ninput: %s", err, data)
		}
		// Accepted graphs must round-trip: same labelled structure.
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var g2 Graph
		if err := json.Unmarshal(out, &g2); err != nil {
			t.Fatalf("round-trip decode failed: %v\nmarshaled: %s", err, out)
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatalf("fingerprint changed across round trip\nin:  %s\nout: %s", data, out)
		}
		// Lazy attributes must be computable (no panic) on accepted graphs.
		g.Levels()
		g.Reach()
	})
}

// FuzzBinaryGraph feeds arbitrary bytes through the binary graph decoder —
// the frame network clients reach via the mpschedd binary wire codec
// (internal/wire). The decoder must never panic and must agree with the
// per-element reference decoder, as in FuzzUnmarshalGraph. Whatever it
// accepts must validate cleanly, re-encode to a frame that decodes back
// to the same bytes and fingerprint, and stay equivalent to the JSON
// codec: the same graph pushed through JSON must carry the same
// fingerprint back.
func FuzzBinaryGraph(f *testing.F) {
	// Well-formed seeds: every operand kind, interned colors, edges.
	wellFormed := []string{
		`{"name":"g","nodes":[{"name":"n0","color":"a"},{"name":"n1","color":"b"}],"edges":[[0,1]]}`,
		`{"name":"sem","nodes":[{"name":"n0","color":"a","op":"add","args":[{"input":"x"},{"const":2}],"output":"y"}],"edges":[]}`,
		`{"name":"diamond","nodes":[{"name":"a","color":"a"},{"name":"b","color":"b"},{"name":"c","color":"b"},{"name":"d","color":"a"}],"edges":[[0,1],[0,2],[1,3],[2,3]]}`,
	}
	for _, src := range wellFormed {
		var g Graph
		if err := json.Unmarshal([]byte(src), &g); err != nil {
			f.Fatal(err)
		}
		f.Add(g.AppendBinary(nil))
	}
	// Hostile seeds: bad magic, bad version, truncations, hostile counts,
	// out-of-range references.
	f.Add([]byte{})
	f.Add([]byte("MPG"))
	f.Add([]byte("MPG\x02"))
	f.Add([]byte("XXX\x01\x00"))
	f.Add([]byte("MPG\x01\x00\x00\xff\xff\xff\xff\x0f"))
	f.Add([]byte("MPG\x01\x00\x01\x01a\x01\x02n0\x07\x00\x00\x00"))
	full := buildFuzzSeed().AppendBinary(nil)
	f.Add(full)
	f.Add(full[:len(full)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		err := g.UnmarshalBinary(data)
		ref, refErr := referenceUnmarshalBinary(data)
		requireMatchesReference(t, &g, err, ref, refErr)
		if err != nil {
			return // rejected — the only other acceptable outcome is below
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("binary decoder accepted a graph that fails Validate: %v", err)
		}
		// Accepted graphs must round-trip through the binary codec. A
		// canonical frame (each edge once) re-encodes to itself.
		again := g.AppendBinary(nil)
		var g2 Graph
		if err := g2.UnmarshalBinary(again); err != nil {
			t.Fatalf("binary round-trip decode failed: %v", err)
		}
		if !bytes.Equal(g2.AppendBinary(nil), again) {
			t.Fatal("binary re-encode is not stable")
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatal("fingerprint changed across binary round trip")
		}
		// ...and through the JSON codec: the two wire formats must stay
		// interchangeable for every graph the binary decoder accepts.
		jsonData, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("JSON re-marshal failed: %v", err)
		}
		var g3 Graph
		if err := json.Unmarshal(jsonData, &g3); err != nil {
			t.Fatalf("JSON round-trip decode failed: %v", err)
		}
		if g.Fingerprint() != g3.Fingerprint() {
			t.Fatal("fingerprint changed across the JSON cross-codec trip")
		}
		g.Levels()
		g.Reach()
	})
}

// buildFuzzSeed is a richer well-formed seed than the JSON-derived ones:
// constants, negations and outputs across three colors.
func buildFuzzSeed() *Graph {
	g := NewGraph("seed")
	a := g.MustAddNode(Node{Name: "a0", Color: "a", Op: OpAdd,
		Args: []Operand{InputRef("x"), ConstVal(1.5)}})
	b := g.MustAddNode(Node{Name: "b0", Color: "b", Op: OpNeg,
		Args: []Operand{NodeRef(a)}})
	g.MustAddDep(a, b)
	c := g.MustAddNode(Node{Name: "c0", Color: "c", Op: OpMul,
		Args: []Operand{NodeRef(a), NodeRef(b)}, Output: "y"})
	g.MustAddDep(a, c)
	g.MustAddDep(b, c)
	return g
}

// TestUnmarshalTypedErrors pins the error classification the compile
// service relies on to map hostile input to 4xx responses.
func TestUnmarshalTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"edge out of range", `{"nodes":[{"name":"n0","color":"a"}],"edges":[[0,7]]}`, ErrIndexRange},
		{"edge negative", `{"nodes":[{"name":"n0","color":"a"}],"edges":[[-2,0]]}`, ErrIndexRange},
		{"operand out of range", `{"nodes":[{"name":"n0","color":"a","op":"add","args":[{"node":42},{"node":0}]}],"edges":[]}`, ErrIndexRange},
		{"duplicate names", `{"nodes":[{"name":"x","color":"a"},{"name":"x","color":"b"}],"edges":[]}`, ErrDuplicateName},
		{"two-cycle", `{"nodes":[{"name":"n0","color":"a"},{"name":"n1","color":"a"}],"edges":[[0,1],[1,0]]}`, ErrCyclic},
		{"self-cycle", `{"nodes":[{"name":"n0","color":"a"}],"edges":[[0,0]]}`, ErrCyclic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := json.Unmarshal([]byte(tc.in), &g)
			if err == nil {
				t.Fatalf("decoded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}
