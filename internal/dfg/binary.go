package dfg

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"
)

// Binary graph framing ("MPG", version 1) — the compact counterpart of the
// JSON shape in io.go, used by the binary wire codec (internal/wire) so a
// graph crossing the network costs bytes proportional to its content, not
// to JSON tokenisation. All integers are unsigned varints unless noted;
// strings are a uvarint length followed by raw bytes; floats are 8-byte
// little-endian IEEE 754. Colors are interned into a table in first-use
// order, so each node carries a small table index instead of a string.
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
// the format is safe to accept from untrusted network clients. Every
// count is bounded by the remaining input length before allocation, so a
// hostile header cannot make the decoder allocate unbounded memory.
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
	buf = appendString(buf, d.Name)

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
		buf = appendString(buf, string(c))
	}

	buf = binary.AppendUvarint(buf, uint64(len(d.nodes)))
	for _, n := range d.nodes {
		buf = appendString(buf, n.Name)
		buf = binary.AppendUvarint(buf, uint64(colorIdx(n.Color)))
		buf = binary.AppendUvarint(buf, uint64(n.Op))
		buf = appendString(buf, n.Output)
		buf = binary.AppendUvarint(buf, uint64(len(n.Args)))
		for _, a := range n.Args {
			buf = append(buf, byte(a.Kind))
			switch a.Kind {
			case OperandNode:
				buf = binary.AppendUvarint(buf, uint64(a.Node))
			case OperandInput:
				buf = appendString(buf, a.Input)
			case OperandConst:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Const))
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
	r := newBinReader(data)
	if string(r.take(len(binaryGraphMagic))) != binaryGraphMagic {
		return fmt.Errorf("%w: bad magic", ErrBinaryFormat)
	}
	if v := r.byte(); v != binaryGraphVersion {
		if r.err == nil {
			return fmt.Errorf("%w: unknown version %d", ErrBinaryFormat, v)
		}
		return r.err
	}
	name := r.string()

	ncolors := r.count()
	colors := make([]Color, 0, ncolors)
	for i := 0; i < ncolors && r.err == nil; i++ {
		colors = append(colors, Color(r.string()))
	}

	// The assembler is sized from the counts, but only for as many
	// elements as the rest of the frame can hold at their smallest
	// encoding, so a hostile count costs at most a small multiple of the
	// frame's size in allocation, not of the count.
	nnodes := r.count()
	asm := newAssembler(name, min(nnodes, r.remaining()/minNodeBytes))
	for i := 0; i < nnodes && r.err == nil; i++ {
		n := Node{Name: r.string()}
		ci := r.uvarint()
		if r.err == nil && ci >= uint64(len(colors)) {
			return fmt.Errorf("%w: node %q references color %d of %d", ErrBinaryFormat, n.Name, ci, len(colors))
		}
		if r.err == nil {
			n.Color = colors[ci]
		}
		op := r.uvarint()
		if r.err == nil {
			if _, known := opNames[Op(op)]; !known {
				return fmt.Errorf("%w: node %q has unknown op %d", ErrBinaryFormat, n.Name, op)
			}
			n.Op = Op(op)
		}
		n.Output = r.string()
		nargs := r.count()
		if nargs > 0 && r.err == nil {
			n.Args = make([]Operand, 0, nargs)
		}
		for j := 0; j < nargs && r.err == nil; j++ {
			switch kind := r.byte(); OperandKind(kind) {
			case OperandNode:
				n.Args = append(n.Args, NodeRef(int(r.uvarint())))
			case OperandInput:
				in := r.string()
				if r.err == nil && in == "" {
					return fmt.Errorf("%w: node %q has an empty input operand", ErrBinaryFormat, n.Name)
				}
				n.Args = append(n.Args, InputRef(in))
			case OperandConst:
				v := math.Float64frombits(r.u64())
				if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
					return fmt.Errorf("%w: node %q has a non-finite constant", ErrBinaryFormat, n.Name)
				}
				n.Args = append(n.Args, ConstVal(v))
			default:
				if r.err == nil {
					return fmt.Errorf("%w: node %q has unknown operand kind %d", ErrBinaryFormat, n.Name, kind)
				}
			}
		}
		if r.err != nil {
			return r.err
		}
		if err := asm.node(&n); err != nil {
			return err
		}
	}

	nedges := r.count()
	asm.expectEdges(min(nedges, r.remaining()/minEdgeBytes))
	for i := 0; i < nedges && r.err == nil; i++ {
		from, to := int(r.uvarint()), int(r.uvarint())
		if r.err != nil {
			break
		}
		if err := asm.edge(from, to); err != nil {
			return err
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinaryFormat, len(r.buf)-r.off)
	}
	fresh, err := asm.graph()
	if err != nil {
		return err
	}
	d.replaceWith(fresh)
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// binReader is a cursor over a byte slice with sticky error handling, so
// decode code reads fields linearly and checks r.err at block boundaries.
// After the first failure every read returns a zero value.
//
// Decoded strings are substrings of one copy of the whole frame, made up
// front: a graph's names, colors and labels then cost one allocation
// together rather than one each.
type binReader struct {
	buf []byte
	str string // buf as a string
	off int
	err error
}

func newBinReader(data []byte) binReader { return binReader{buf: data, str: string(data)} }

func (r *binReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrBinaryFormat, r.off)
	}
}

func (r *binReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) remaining() int { return len(r.buf) - r.off }

// count reads a uvarint that sizes an upcoming allocation, bounding it by
// the remaining input: every counted element occupies at least one byte,
// so a count larger than what is left is hostile framing, rejected before
// any allocation happens.
func (r *binReader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrBinaryFormat, v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) string() string {
	n := r.count()
	if r.err != nil || n == 0 {
		return ""
	}
	start := r.off
	if r.take(n) == nil {
		return ""
	}
	s := r.str[start:r.off]
	if !utf8.ValidString(s) {
		r.err = fmt.Errorf("%w: invalid UTF-8 in string at byte %d", ErrBinaryFormat, r.off)
		return ""
	}
	return s
}
