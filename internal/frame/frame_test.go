package frame

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var errTest = errors.New("test: malformed frame")

// readers are the two ways to build a Reader; every rule below holds for
// both.
var readers = map[string]func([]byte, error) Reader{
	"copying": NewReader,
	"shared":  NewSharedReader,
}

// field is one primitive: how to write a value and how to read it back.
type field struct {
	name  string
	write func([]byte) []byte
	read  func(*Reader) any
	want  any
}

var fields = []field{
	{"byte", func(b []byte) []byte { return append(b, 0xa5) }, func(r *Reader) any { return r.Byte() }, byte(0xa5)},
	{"bool", func(b []byte) []byte { return AppendBool(b, true) }, func(r *Reader) any { return r.Bool() }, true},
	{"uvarint", func(b []byte) []byte { return binary.AppendUvarint(b, 1<<40) }, func(r *Reader) any { return r.Uvarint() }, uint64(1 << 40)},
	{"varint", func(b []byte) []byte { return binary.AppendVarint(b, -300) }, func(r *Reader) any { return r.Varint() }, int64(-300)},
	{"u32", func(b []byte) []byte { return binary.LittleEndian.AppendUint32(b, 0xdeadbeef) }, func(r *Reader) any { return r.U32() }, uint32(0xdeadbeef)},
	{"u64", func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, 0x0123456789abcdef) }, func(r *Reader) any { return r.U64() }, uint64(0x0123456789abcdef)},
	{"float64", func(b []byte) []byte { return AppendFloat64(b, -2.5) }, func(r *Reader) any { return r.Float64() }, -2.5},
	{"take", func(b []byte) []byte { return append(b, 7, 8, 9) }, func(r *Reader) any { return r.Take(3) }, []byte{7, 8, 9}},
	{"count", func(b []byte) []byte { return append(b, 2, 0, 0) }, func(r *Reader) any { return r.Count() + len(r.Take(2)) }, 4},
	{"bytes", func(b []byte) []byte { return AppendBytes(b, []byte{0, 0xff, 1}) }, func(r *Reader) any { return r.Bytes() }, []byte{0, 0xff, 1}},
	{"string", func(b []byte) []byte { return AppendString(b, "héllo") }, func(r *Reader) any { return r.String() }, "héllo"},
	{"strings", func(b []byte) []byte { return AppendStrings(b, []string{"a", "", "bc"}) }, func(r *Reader) any { return r.Strings() }, []string{"a", "", "bc"}},
	{"ints", func(b []byte) []byte { return AppendInts(b, []int{-1, 0, 1 << 20}) }, func(r *Reader) any { return r.Ints() }, []int{-1, 0, 1 << 20}},
}

// stream writes every field in order and returns the frame with the
// offset at which each field ends.
func stream() ([]byte, []int) {
	var buf []byte
	ends := make([]int, len(fields))
	for i, f := range fields {
		buf = f.write(buf)
		ends[i] = len(buf)
	}
	return buf, ends
}

// TestReadsWhatAppendWrites: the whole stream reads back field for field
// and ends cleanly.
func TestReadsWhatAppendWrites(t *testing.T) {
	buf, _ := stream()
	for name, newReader := range readers {
		r := newReader(buf, errTest)
		for _, f := range fields {
			if got := f.read(&r); !reflect.DeepEqual(got, f.want) {
				t.Errorf("%s %s: read %v, want %v", name, f.name, got, f.want)
			}
		}
		if err := r.End(); err != nil || r.Remaining() != 0 {
			t.Errorf("%s: End %v with %d bytes left", name, err, r.Remaining())
		}
	}
}

// TestEveryTruncationFails: cut anywhere, the stream reads intact up to
// the field that crosses the cut; that field sets an error wrapping the
// sentinel, it stays the error, and every later read returns its zero
// value.
func TestEveryTruncationFails(t *testing.T) {
	buf, ends := stream()
	for name, newReader := range readers {
		for cut := 0; cut < len(buf); cut++ {
			r := newReader(buf[:cut], errTest)
			var first error
			for i, f := range fields {
				got := f.read(&r)
				switch {
				case ends[i] <= cut:
					if r.Err() != nil || !reflect.DeepEqual(got, f.want) {
						t.Fatalf("%s, cut at %d: %s read %v (err %v), want %v", name, cut, f.name, got, r.Err(), f.want)
					}
				case first == nil:
					if first = r.Err(); !errors.Is(first, errTest) {
						t.Fatalf("%s, cut at %d: %s crossed the cut with error %v", name, cut, f.name, first)
					}
				default:
					if !reflect.ValueOf(got).IsZero() {
						t.Fatalf("%s, cut at %d: %s read %v after the failure", name, cut, f.name, got)
					}
				}
			}
			if r.Err() != first || r.End() != first {
				t.Fatalf("%s, cut at %d: the error moved from %v to %v", name, cut, first, r.Err())
			}
		}
	}
}

// TestCountAboveRemainingAllocatesNothing: a count larger than the bytes
// left fails before any reader allocates for it. Reading a list of the
// hostile count's length would take at least 8 bytes an element; each
// read costs only its error, a few hundred bytes, whose allocation count
// varies under the race detector (fmt's sync.Pool drops some of what is
// put back), so the check is on bytes.
func TestCountAboveRemainingAllocatesNothing(t *testing.T) {
	const count = 1 << 16
	hostile := append(binary.AppendUvarint(nil, count), "abc"...)
	for name, read := range map[string]func(*Reader){
		"count":   func(r *Reader) { r.Count() },
		"bytes":   func(r *Reader) { r.Bytes() },
		"string":  func(r *Reader) { _ = r.String() },
		"strings": func(r *Reader) { r.Strings() },
		"ints":    func(r *Reader) { r.Ints() },
	} {
		allocated := bytesPerRun(100, func() {
			r := NewReader(hostile, errTest)
			read(&r)
			if !errors.Is(r.Err(), errTest) || !strings.Contains(r.Err().Error(), "count 65536 exceeds 3 remaining bytes") {
				t.Fatalf("%s: hostile count: error %v", name, r.Err())
			}
		})
		if allocated >= count {
			t.Errorf("%s: %.0f bytes allocated for a refused count of %d", name, allocated, count)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes f
// allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStringRefusesInvalidUTF8: String refuses what Bytes takes.
func TestStringRefusesInvalidUTF8(t *testing.T) {
	buf := AppendString(nil, "ok\xff")
	for name, newReader := range readers {
		r := newReader(buf, errTest)
		if s := r.String(); s != "" || !errors.Is(r.Err(), errTest) || !strings.Contains(r.Err().Error(), "invalid UTF-8") {
			t.Errorf("%s: String read %q with error %v", name, s, r.Err())
		}
		r = newReader(buf, errTest)
		if b := r.Bytes(); string(b) != "ok\xff" || r.End() != nil {
			t.Errorf("%s: Bytes read %q with error %v", name, b, r.End())
		}
	}
}

// TestEndReportsTrailingBytes: End names what is left unread.
func TestEndReportsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	r.Byte()
	if err := r.End(); !errors.Is(err, errTest) || !strings.HasSuffix(err.Error(), ": 2 trailing bytes") {
		t.Fatalf("End = %v, want 2 trailing bytes", err)
	}
}

// TestStringsOutliveTheirFrame: strings survive their frame being
// overwritten, as a pooled body buffer is once its decode returns; a
// shared Reader pays one copy of the frame for all of them, a copying
// Reader one copy each.
func TestStringsOutliveTheirFrame(t *testing.T) {
	want := []string{"alpha", "beta", "gamma"}
	for name, newReader := range readers {
		buf := AppendStrings(nil, want)
		r := newReader(buf, errTest)
		got := r.Strings()
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: strings read %q after their frame was overwritten, want %q", name, got, want)
		}
	}
	buf := AppendString(AppendString(AppendString(nil, want[0]), want[1]), want[2])
	for name, wantAllocs := range map[string]float64{"copying": 3, "shared": 1} {
		allocs := testing.AllocsPerRun(100, func() {
			r := readers[name](buf, errTest)
			_, _, _ = r.String(), r.String(), r.String()
		})
		if allocs != wantAllocs {
			t.Errorf("%s: %v allocations for three strings, want %v", name, allocs, wantAllocs)
		}
	}
}
