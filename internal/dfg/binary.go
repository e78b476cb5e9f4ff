package dfg

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpsched/internal/frame"
)

// Binary graph framing ("MPG", version 1) — the compact counterpart of the
// JSON shape in io.go, used by the binary wire codec (internal/wire) so a
// graph crossing the network costs bytes proportional to its content, not
// to JSON tokenisation. Fields are internal/frame's primitives: integers
// are unsigned varints unless noted, strings are length-prefixed UTF-8,
// floats are 8-byte little-endian IEEE 754. Colors are interned into a
// table in first-use order, so each node carries a small table index
// instead of a string.
//
//	magic   "MPG" 0x01                     (format + version)
//	name    string                         (graph name)
//	colors  uvarint count, count × string  (interned color table)
//	nodes   uvarint count, count × node
//	edges   uvarint count, count × (uvarint from, uvarint to)
//
//	node    name string, color uvarint (table index), op uvarint,
//	        output string, args uvarint count, count × arg
//	arg     kind byte: 0 node (uvarint id), 1 input (string),
//	        2 const (8-byte float)
//
// Decoding is as strict as the JSON path: both decoders build through the
// same one-pass assembler (assemble.go), which makes AddNode's and
// AddDep's checks in order, then Validate, so duplicate names
// (ErrDuplicateName), out-of-range references (ErrIndexRange) and cycles
// (ErrCyclic) are rejected with the same typed errors and never panic —
// the format is safe to accept from untrusted network clients. The frame
// reader bounds every count by the remaining input before allocation, so
// a hostile header cannot make the decoder allocate unbounded memory.
//
// The two wire codecs are interchangeable: anything the binary decoder
// accepts can round-trip through the JSON codec with its fingerprint
// intact (pinned by FuzzBinaryGraph). That parity is enforced here by
// rejecting what JSON cannot express — invalid UTF-8 in strings,
// non-finite constants, and empty input-operand names.

// Framing constants for the binary graph format.
const (
	binaryGraphMagic   = "MPG"
	binaryGraphVersion = 1

	// The smallest encodings: a node is five one-byte fields (name
	// length, color, op, output length, operand count), an edge two.
	minNodeBytes = 5
	minEdgeBytes = 2
)

// ErrBinaryFormat reports a malformed binary graph frame (bad magic,
// unknown version, truncated input, or counts inconsistent with the
// payload). Structural failures of a well-framed graph keep their own
// typed errors (ErrDuplicateName, ErrIndexRange, ErrCyclic).
var ErrBinaryFormat = fmt.Errorf("dfg: malformed binary graph")

// AppendBinary encodes the graph in the binary framing, appending to buf
// and returning the extended slice (the append idiom — pass a pooled
// buffer to amortise allocations across encodes).
func (d *Graph) AppendBinary(buf []byte) []byte {
	buf = append(buf, binaryGraphMagic...)
	buf = append(buf, binaryGraphVersion)
	buf = frame.AppendString(buf, d.Name)

	// Intern colors in first-use order. Color sets are tiny (the paper's
	// graphs use 2–4), so a linear scan beats a map.
	var colors []Color
	colorIdx := func(c Color) int {
		for i, have := range colors {
			if have == c {
				return i
			}
		}
		colors = append(colors, c)
		return len(colors) - 1
	}
	for _, n := range d.nodes {
		colorIdx(n.Color)
	}
	buf = binary.AppendUvarint(buf, uint64(len(colors)))
	for _, c := range colors {
		buf = frame.AppendString(buf, string(c))
	}

	buf = binary.AppendUvarint(buf, uint64(len(d.nodes)))
	for _, n := range d.nodes {
		buf = frame.AppendString(buf, n.Name)
		buf = binary.AppendUvarint(buf, uint64(colorIdx(n.Color)))
		buf = binary.AppendUvarint(buf, uint64(n.Op))
		buf = frame.AppendString(buf, n.Output)
		buf = binary.AppendUvarint(buf, uint64(len(n.Args)))
		for _, a := range n.Args {
			buf = append(buf, byte(a.Kind))
			switch a.Kind {
			case OperandNode:
				buf = binary.AppendUvarint(buf, uint64(a.Node))
			case OperandInput:
				buf = frame.AppendString(buf, a.Input)
			case OperandConst:
				buf = frame.AppendFloat64(buf, a.Const)
			}
		}
	}

	// Edges in from-major adjacency order, the order Digraph.Edges lists.
	buf = binary.AppendUvarint(buf, uint64(d.g.M()))
	for u := range d.nodes {
		for _, v := range d.g.Succs(u) {
			buf = binary.AppendUvarint(buf, uint64(u))
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (d *Graph) MarshalBinary() ([]byte, error) {
	return d.AppendBinary(nil), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, decoding the
// framing produced by AppendBinary. On success the receiver is replaced
// wholesale (like UnmarshalJSON); on any error it is left untouched.
func (d *Graph) UnmarshalBinary(data []byte) error {
	r := frame.NewSharedReader(data, ErrBinaryFormat)
	if string(r.Take(len(binaryGraphMagic))) != binaryGraphMagic {
		return fmt.Errorf("%w: bad magic", ErrBinaryFormat)
	}
	if v := r.Byte(); v != binaryGraphVersion {
		if r.Err() == nil {
			return fmt.Errorf("%w: unknown version %d", ErrBinaryFormat, v)
		}
		return r.Err()
	}
	name := r.String()

	ncolors := r.Count()
	colors := make([]Color, 0, ncolors)
	for i := 0; i < ncolors && r.Err() == nil; i++ {
		colors = append(colors, Color(r.String()))
	}

	// The assembler is sized from the counts, but only for as many
	// elements as the rest of the frame can hold at their smallest
	// encoding, so a hostile count costs at most a small multiple of the
	// frame's size in allocation, not of the count.
	nnodes := r.Count()
	asm := newAssembler(name, min(nnodes, r.Remaining()/minNodeBytes))
	for i := 0; i < nnodes && r.Err() == nil; i++ {
		n := Node{Name: r.String()}
		ci := r.Uvarint()
		if r.Err() == nil && ci >= uint64(len(colors)) {
			return fmt.Errorf("%w: node %q references color %d of %d", ErrBinaryFormat, n.Name, ci, len(colors))
		}
		if r.Err() == nil {
			n.Color = colors[ci]
		}
		op := r.Uvarint()
		if r.Err() == nil {
			if _, known := opNames[Op(op)]; !known {
				return fmt.Errorf("%w: node %q has unknown op %d", ErrBinaryFormat, n.Name, op)
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
					return fmt.Errorf("%w: node %q has an empty input operand", ErrBinaryFormat, n.Name)
				}
				n.Args = append(n.Args, InputRef(in))
			case OperandConst:
				v := r.Float64()
				if r.Err() == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
					return fmt.Errorf("%w: node %q has a non-finite constant", ErrBinaryFormat, n.Name)
				}
				n.Args = append(n.Args, ConstVal(v))
			default:
				if r.Err() == nil {
					return fmt.Errorf("%w: node %q has unknown operand kind %d", ErrBinaryFormat, n.Name, kind)
				}
			}
		}
		if r.Err() != nil {
			return r.Err()
		}
		if err := asm.node(&n); err != nil {
			return err
		}
	}

	nedges := r.Count()
	asm.expectEdges(min(nedges, r.Remaining()/minEdgeBytes))
	for i := 0; i < nedges && r.Err() == nil; i++ {
		from, to := int(r.Uvarint()), int(r.Uvarint())
		if r.Err() != nil {
			break
		}
		if err := asm.edge(from, to); err != nil {
			return err
		}
	}
	if err := r.End(); err != nil {
		return err
	}
	fresh, err := asm.graph()
	if err != nil {
		return err
	}
	d.replaceWith(fresh)
	return nil
}
