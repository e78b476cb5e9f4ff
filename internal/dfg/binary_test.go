package dfg

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
)

// buildSemGraph returns a graph exercising every operand kind, semantics,
// outputs and several colors.
func buildSemGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph("sem")
	a := g.MustAddNode(Node{Name: "a0", Color: "a", Op: OpAdd,
		Args: []Operand{InputRef("x0"), ConstVal(2.5)}})
	b := g.MustAddNode(Node{Name: "b0", Color: "b", Op: OpSub,
		Args: []Operand{NodeRef(a), ConstVal(-1)}})
	g.MustAddDep(a, b)
	c := g.MustAddNode(Node{Name: "c0", Color: "c", Op: OpNeg,
		Args: []Operand{NodeRef(b)}, Output: "y"})
	g.MustAddDep(b, c)
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{buildSemGraph(t), NewGraph("empty")} {
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", g.Name, err)
		}
		var back Graph
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", g.Name, err)
		}
		if back.Name != g.Name || back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("%s: round trip changed shape: %v vs %v", g.Name, &back, g)
		}
		if g.N() > 0 && back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across binary round trip", g.Name)
		}
	}
}

func TestBinaryJSONCrossCodec(t *testing.T) {
	g := buildSemGraph(t)
	jsonData, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON Graph
	if err := json.Unmarshal(jsonData, &viaJSON); err != nil {
		t.Fatal(err)
	}
	binData, err := viaJSON.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var viaBoth Graph
	if err := viaBoth.UnmarshalBinary(binData); err != nil {
		t.Fatal(err)
	}
	if viaBoth.Fingerprint() != g.Fingerprint() {
		t.Fatal("JSON→binary chain changed the fingerprint")
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	valid, err := buildSemGraph(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBinaryFormat},
		{"bad magic", []byte("XXX\x01"), ErrBinaryFormat},
		{"bad version", []byte("MPG\x63"), ErrBinaryFormat},
		{"truncated", valid[:len(valid)/2], ErrBinaryFormat},
		{"trailing bytes", append(append([]byte{}, valid...), 0), ErrBinaryFormat},
		// Counts far beyond the payload must be rejected before allocation.
		{"hostile node count", []byte("MPG\x01\x00\x00\xff\xff\xff\xff\x0f"), ErrBinaryFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := g.UnmarshalBinary(tc.data)
			if err == nil {
				t.Fatal("decoded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
			if g.N() != 0 {
				t.Fatal("failed decode mutated the receiver")
			}
		})
	}
}

// TestBinaryTypedStructuralErrors pins that structural failures of a
// well-framed binary graph surface the same typed errors as the JSON path.
func TestBinaryTypedStructuralErrors(t *testing.T) {
	encode := func(build func(g *Graph)) []byte {
		g := NewGraph("t")
		build(g)
		return g.AppendBinary(nil)
	}
	// An out-of-range edge and a cycle cannot be built through AddDep, so
	// splice them into valid frames by re-encoding by hand.
	twoNodes := encode(func(g *Graph) {
		g.MustAddNode(Node{Name: "n0", Color: "a"})
		g.MustAddNode(Node{Name: "n1", Color: "a"})
	})
	// ...frame ends with edge count 0; replace with hostile edge lists.
	edgeOOR := append(append([]byte{}, twoNodes[:len(twoNodes)-1]...), 1, 0, 9)
	cycle := append(append([]byte{}, twoNodes[:len(twoNodes)-1]...), 2, 0, 1, 1, 0)

	dupNames := encode(func(g *Graph) { g.MustAddNode(Node{Name: "dup", Color: "a"}) })
	// Duplicate the single node record by raising the count and repeating
	// its bytes: name "dup", color 0, op 0, output "", args 0.
	nodeRec := []byte{3, 'd', 'u', 'p', 0, 0, 0, 0}
	idx := len(dupNames) - len(nodeRec) - 2 // node count byte before record, edge count after
	dup := append(append([]byte{}, dupNames[:idx]...), 2)
	dup = append(dup, nodeRec...)
	dup = append(dup, nodeRec...)
	dup = append(dup, 0) // edges

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"edge out of range", edgeOOR, ErrIndexRange},
		{"cycle", cycle, ErrCyclic},
		{"duplicate names", dup, ErrDuplicateName},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := g.UnmarshalBinary(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestBinaryHostileCountsBoundAllocation: the decoder sizes its node and
// edge storage from the frame's counts, but a count the payload cannot
// back — each node takes at least minNodeBytes, each edge minEdgeBytes —
// must not make it allocate in proportion to the count. A frame of 1 MiB
// claiming a node (or edge) per byte is rejected having allocated a small
// multiple of its own size: about 24× for nodes (80-byte nodes and a map
// slot per 5 bytes) and 9× for edges, against 134× and 17× if sized by
// the count alone.
func TestBinaryHostileCountsBoundAllocation(t *testing.T) {
	const size = 1 << 20
	frame := func(prefix string) []byte {
		b := binary.AppendUvarint([]byte(prefix), size)
		return append(b, make([]byte, size)...)
	}
	cases := []struct {
		name  string
		data  []byte
		bound uint64 // allowed allocation, in frame sizes
	}{
		// One empty-named node per byte.
		{"nodes", frame("MPG\x01\x00\x00"), 32},
		// A valid single node, then one edge per byte.
		{"edges", frame("MPG\x01\x00\x01\x01a\x01\x02n0\x00\x00\x00\x00"), 12},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var g Graph
		err := g.UnmarshalBinary(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: hostile frame decoded", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tc.bound*uint64(len(tc.data)) {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes (%.1f× the frame, bound %d×)",
				tc.name, len(tc.data), alloc, float64(alloc)/float64(len(tc.data)), tc.bound)
		}
	}
}
