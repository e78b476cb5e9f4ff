// Package frame reads and writes the binary frames of every mpsched
// codec: the dfg graph framing ("MPG"), the wire request, response,
// batch and item frames ("MPQ", "MPS", "MPB") and the result store's
// cache entries ("MPE"). Each format lays out its own fields; this
// package owns the primitives they are built from and the rules that
// make decoding them safe on hostile input.
//
// The primitives:
//
//	uvarint, varint  encoding/binary's varints
//	u32, u64         4 and 8 bytes, little-endian
//	float64          a u64 holding the IEEE 754 bits
//	bool             one byte, 0 for false and anything else for true
//	bytes, string    a uvarint length, then that many bytes
//	strings, ints    a uvarint count, then count strings or varints
//
// The hostile-input bounds, which hold for every frame a Reader reads:
//
//   - No read goes past the end of the frame. The first failed read sets
//     a sticky error that wraps the sentinel the Reader was built with,
//     and every read after it returns a zero value, so a decoder reads
//     its fields in order and checks Err only where it must branch.
//   - A count that sizes an allocation is refused when it exceeds the
//     bytes left, before anything is allocated: every counted element
//     takes at least one byte.
//   - String refuses invalid UTF-8, so a frame carries no string the
//     JSON codecs could not; Bytes takes any bytes.
//   - No string aliases the frame, which may be a pooled buffer that is
//     overwritten once the decode returns. A Reader from NewReader copies
//     each string; one from NewSharedReader copies the frame once and
//     returns substrings of that copy. Take and Bytes alias the frame.
//   - End reports bytes left over after the last field.
package frame

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"
)

// Reader is a cursor over one frame with a sticky error. It is a value,
// so decoding through one allocates nothing beyond what the decoder
// keeps.
type Reader struct {
	buf      []byte
	str      string // buf as one string, for a shared Reader
	off      int
	err      error
	sentinel error
}

// NewReader returns a Reader over buf whose errors wrap sentinel. Each
// string it reads is a copy of its own.
func NewReader(buf []byte, sentinel error) Reader {
	return Reader{buf: buf, sentinel: sentinel}
}

// NewSharedReader is NewReader for a frame of many short strings: it
// copies buf into one string up front, and each string it reads is a
// substring of that copy, so a frame's strings cost one allocation
// together rather than one each.
func NewSharedReader(buf []byte, sentinel error) Reader {
	return Reader{buf: buf, str: string(buf), sentinel: sentinel}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// End returns the first failure, or an error if bytes are left unread.
func (r *Reader) End() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", r.sentinel, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at byte %d", r.sentinel, r.off)
	}
}

// Take returns the next n bytes, aliasing the frame.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte as a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint; one that overflows 64 bits fails as
// a truncation does.
func (r *Reader) Uvarint() uint64 {
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

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint that sizes an upcoming allocation, refusing one
// larger than the bytes left.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", r.sentinel, v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

// U32 reads 4 little-endian bytes.
func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Float64 reads a float64 from its 8 little-endian IEEE 754 bytes.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte run, aliasing the frame.
func (r *Reader) Bytes() []byte { return r.Take(r.Count()) }

// String reads a length-prefixed string, refusing invalid UTF-8.
func (r *Reader) String() string {
	n := r.Count()
	if r.err != nil || n == 0 {
		return ""
	}
	start := r.off
	b := r.Take(n) // within the frame: Count checked n
	if !utf8.Valid(b) {
		r.err = fmt.Errorf("%w: invalid UTF-8 in string at byte %d", r.sentinel, r.off)
		return ""
	}
	if r.str != "" {
		return r.str[start:r.off]
	}
	return string(b)
}

// Strings reads a counted list of strings; an empty list is nil.
func (r *Reader) Strings() []string {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	return out
}

// Ints reads a counted list of varints; an empty list is nil.
func (r *Reader) Ints() []int {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int(r.Varint()))
	}
	return out
}

// AppendBool appends b as one byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendFloat64 appends f's 8 little-endian IEEE 754 bytes.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendBytes appends b with its uvarint length.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendString appends s with its uvarint length.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendStrings appends ss's count and each of its strings.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// AppendInts appends vs's count and each of its values as a varint.
func AppendInts(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}
