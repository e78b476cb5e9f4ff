package dfg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mpsched/internal/frame"
)

// The reference ingest path: the fmt-based fingerprint and the
// per-element AddNode/AddDep decode loops that Fingerprint,
// UnmarshalBinary and UnmarshalJSON replaced. The production code must
// agree with them bit for bit — same hash, same accept/reject decision
// and error text, same Succs/Preds order — which the reference and fuzz
// tests check.

// referenceFingerprint hashes the graph the way Fingerprint's contract
// specifies, one fmt call per field.
func referenceFingerprint(d *Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1 n=%d m=%d\n", d.N(), d.M())
	for id := 0; id < d.N(); id++ {
		n := d.Node(id)
		fmt.Fprintf(h, "node %q %q %d %q", n.Name, n.Color, n.Op, n.Output)
		for _, a := range n.Args {
			fmt.Fprintf(h, " %d:%d:%q:%g", a.Kind, a.Node, a.Input, a.Const)
		}
		fmt.Fprintln(h)
	}
	edges := d.Digraph().Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(h, "edge %d %d\n", e[0], e[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceUnmarshalBinary decodes the binary framing through AddNode and
// AddDep, one element at a time.
func referenceUnmarshalBinary(data []byte) (*Graph, error) {
	r := frame.NewSharedReader(data, ErrBinaryFormat)
	if string(r.Take(len(binaryGraphMagic))) != binaryGraphMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBinaryFormat)
	}
	if v := r.Byte(); v != binaryGraphVersion {
		if r.Err() == nil {
			return nil, fmt.Errorf("%w: unknown version %d", ErrBinaryFormat, v)
		}
		return nil, r.Err()
	}
	name := r.String()

	ncolors := r.Count()
	colors := make([]Color, 0, ncolors)
	for i := 0; i < ncolors && r.Err() == nil; i++ {
		colors = append(colors, Color(r.String()))
	}

	nnodes := r.Count()
	fresh := NewGraph(name)
	for i := 0; i < nnodes && r.Err() == nil; i++ {
		n := Node{Name: r.String()}
		ci := r.Uvarint()
		if r.Err() == nil && ci >= uint64(len(colors)) {
			return nil, fmt.Errorf("%w: node %q references color %d of %d", ErrBinaryFormat, n.Name, ci, len(colors))
		}
		if r.Err() == nil {
			n.Color = colors[ci]
		}
		op := r.Uvarint()
		if r.Err() == nil {
			if _, known := opNames[Op(op)]; !known {
				return nil, fmt.Errorf("%w: node %q has unknown op %d", ErrBinaryFormat, n.Name, op)
			}
			n.Op = Op(op)
		}
		n.Output = r.String()
		nargs := r.Count()
		if nargs > 0 && r.Err() == nil {
			n.Args = make([]Operand, 0, nargs)
		}
		for j := 0; j < nargs && r.Err() == nil; j++ {
			switch kind := r.Byte(); OperandKind(kind) {
			case OperandNode:
				n.Args = append(n.Args, NodeRef(int(r.Uvarint())))
			case OperandInput:
				in := r.String()
				if r.Err() == nil && in == "" {
					return nil, fmt.Errorf("%w: node %q has an empty input operand", ErrBinaryFormat, n.Name)
				}
				n.Args = append(n.Args, InputRef(in))
			case OperandConst:
				v := math.Float64frombits(r.U64())
				if r.Err() == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
					return nil, fmt.Errorf("%w: node %q has a non-finite constant", ErrBinaryFormat, n.Name)
				}
				n.Args = append(n.Args, ConstVal(v))
			default:
				if r.Err() == nil {
					return nil, fmt.Errorf("%w: node %q has unknown operand kind %d", ErrBinaryFormat, n.Name, kind)
				}
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if _, err := fresh.AddNode(n); err != nil {
			return nil, err
		}
	}

	nedges := r.Count()
	for i := 0; i < nedges && r.Err() == nil; i++ {
		from, to := int(r.Uvarint()), int(r.Uvarint())
		if r.Err() != nil {
			break
		}
		if from < 0 || from >= fresh.N() || to < 0 || to >= fresh.N() {
			return nil, fmt.Errorf("dfg: edge [%d %d]: %w (graph has %d nodes)", from, to, ErrIndexRange, fresh.N())
		}
		if err := fresh.AddDep(from, to); err != nil {
			return nil, err
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinaryFormat, r.Remaining())
	}
	if err := fresh.Validate(); err != nil {
		return nil, err
	}
	return fresh, nil
}

// referenceUnmarshalJSON decodes the JSON shape through AddNode and
// AddDep, one element at a time.
func referenceUnmarshalJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("dfg: %w", err)
	}
	fresh := NewGraph(jg.Name)
	for _, jn := range jg.Nodes {
		n := Node{Name: jn.Name, Color: Color(jn.Color), Output: jn.Output}
		if jn.Op != "" {
			op, err := ParseOp(jn.Op)
			if err != nil {
				return nil, err
			}
			n.Op = op
		}
		for _, ja := range jn.Args {
			switch {
			case ja.Node != nil:
				n.Args = append(n.Args, NodeRef(*ja.Node))
			case ja.Input != "":
				n.Args = append(n.Args, InputRef(ja.Input))
			case ja.Const != nil:
				n.Args = append(n.Args, ConstVal(*ja.Const))
			default:
				return nil, fmt.Errorf("dfg: node %s: empty operand", jn.Name)
			}
		}
		if _, err := fresh.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, e := range jg.Edges {
		if e[0] < 0 || e[0] >= fresh.N() || e[1] < 0 || e[1] >= fresh.N() {
			return nil, fmt.Errorf("dfg: edge %v: %w (graph has %d nodes)", e, ErrIndexRange, fresh.N())
		}
		if err := fresh.AddDep(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := fresh.Validate(); err != nil {
		return nil, err
	}
	return fresh, nil
}

// requireMatchesReference fails t unless a decode (got, err) agrees with
// the reference decode (ref, refErr) of the same input: the same
// accept/reject decision with the same error text and classification,
// and for accepted input the same nodes, the same Succs/Preds order and a
// fingerprint equal to the reference hash.
func requireMatchesReference(t testing.TB, got *Graph, err error, ref *Graph, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("accept/reject differs from the reference: got %v, reference %v", err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("error differs from the reference:\n got %v\nwant %v", err, refErr)
		}
		for _, typed := range []error{ErrDuplicateName, ErrIndexRange, ErrCyclic, ErrBinaryFormat} {
			if errors.Is(err, typed) != errors.Is(refErr, typed) {
				t.Fatalf("errors.Is(%v) differs from the reference: got %v, reference %v", typed, err, refErr)
			}
		}
		return
	}
	if got.Name != ref.Name || got.N() != ref.N() || got.M() != ref.M() {
		t.Fatalf("decoded %q with %d nodes, %d edges; reference %q with %d nodes, %d edges",
			got.Name, got.N(), got.M(), ref.Name, ref.N(), ref.M())
	}
	for id := range got.nodes {
		if !reflect.DeepEqual(got.nodes[id], ref.nodes[id]) {
			t.Fatalf("node %d: decoded %#v, reference %#v", id, got.nodes[id], ref.nodes[id])
		}
	}
	for u := 0; u < got.N(); u++ {
		if !slices.Equal(got.Succs(u), ref.Succs(u)) || !slices.Equal(got.Preds(u), ref.Preds(u)) {
			t.Fatalf("node %d: succs %v preds %v, reference %v %v", u, got.Succs(u), got.Preds(u), ref.Succs(u), ref.Preds(u))
		}
	}
	if fp, want := got.Fingerprint(), referenceFingerprint(ref); fp != want {
		t.Fatalf("fingerprint %s, reference %s", fp, want)
	}
}
