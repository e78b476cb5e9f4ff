package wire

import (
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The JSON codec reads and writes the messages every JSON compile passes
// through — the request envelope and CompileResponse — by hand, on the
// scanner and the appenders in this file. The decoders take only the
// canonical form: exact lower-case keys, no null, no key twice, numbers
// in range for their field, and a zero destination. They hand any other
// body to encoding/json on the same bytes, so every body gets the value
// or the error it got from encoding/json alone. The encoders write the
// bytes encoding/json writes with HTML escaping off. The dfg text inside
// a request is skipped here and decoded by dfg.Graph.UnmarshalJSON.

// maxJSONDepth is encoding/json's nesting limit: json.Valid refuses a
// value nested deeper than this.
const maxJSONDepth = 10000

// scanner is a cursor over one JSON text with a sticky failure, the shape
// of the binary codec's reader: a decoder reads its fields in order and
// checks bad once at the end. A failure means only that the text is not
// in the canonical form the caller reads; encoding/json decides what it
// is.
type scanner struct {
	data   []byte
	off    int
	bad    bool
	spaced bool // whitespace was skipped between tokens
}

func (s *scanner) fail() { s.bad = true }

// ws skips JSON whitespace.
func (s *scanner) ws() {
	if s.off < len(s.data) && s.data[s.off] > ' ' {
		return // compact JSON: no whitespace between tokens
	}
	start := s.off
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
			continue
		}
		break
	}
	if s.off != start {
		s.spaced = true
	}
}

// peek returns the next byte after whitespace, or 0 at the end.
func (s *scanner) peek() byte {
	s.ws()
	if s.bad || s.off >= len(s.data) {
		return 0
	}
	return s.data[s.off]
}

// expect consumes c, the next byte after whitespace.
func (s *scanner) expect(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.off++
}

// more reports whether the object or array being read has another
// member, consuming the comma before every member but the first and the
// closing byte after the last.
func (s *scanner) more(close byte, first bool) bool {
	switch c := s.peek(); {
	case c == 0:
	case c == close:
		s.off++
		return false
	case first:
		return true
	case c == ',':
		s.off++
		return true
	}
	s.fail()
	return false
}

// key reads an object key and its colon. A key with an escape in it is
// not canonical: encoding/json matches it after unquoting.
func (s *scanner) key() []byte {
	k, plain := s.quoted()
	if !plain {
		s.fail()
	}
	s.expect(':')
	return k
}

// done checks that only whitespace is left and reports whether the
// whole text was read.
func (s *scanner) done() bool {
	s.ws()
	if s.off != len(s.data) {
		s.fail()
	}
	return !s.bad
}

// str reads a string as encoding/json unquotes it: escapes resolved,
// an unpaired surrogate escape and every byte of invalid UTF-8 replaced
// by U+FFFD. The string is a copy.
func (s *scanner) str() string {
	raw, plain := s.quoted()
	if plain {
		return string(raw)
	}
	return string(unquote(raw))
}

// quoted checks a string and returns its body between the quotes, and
// whether that body is plain: no escape, and valid UTF-8.
func (s *scanner) quoted() (raw []byte, plain bool) {
	s.expect('"')
	if s.bad {
		return nil, true
	}
	d, start, i := s.data, s.off, s.off
	plain = true
	for {
		for i < len(d) && plainByte[d[i]] {
			i++
		}
		if i >= len(d) {
			break
		}
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			return d[start:i], plain
		case c == '\\':
			plain = false
			if i+1 >= len(d) {
				s.fail()
				return nil, true
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d) || hex4(d[i+2:i+6]) < 0 {
					s.fail()
					return nil, true
				}
				i += 6
			default:
				s.fail()
				return nil, true
			}
		case c < ' ':
			s.fail()
			return nil, true
		default:
			r, n := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			i += n
		}
	}
	s.fail()
	return nil, true
}

// plainByte marks the bytes a string holds as they are: ASCII from the
// space up, but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 is the value of four hex digits, or -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote resolves the escapes of raw, a string body the scanner has
// checked, and coerces it to UTF-8 exactly as encoding/json does.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+utf8.UTFMax)
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(raw[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
						if d := utf16.DecodeRune(rr, hex4(raw[r+2:])); d != utf8.RuneError {
							out = utf8.AppendRune(out, d)
							r += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, n := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += n
		}
	}
	return out
}

// number reads a number literal, checking its grammar, and reports
// whether it is an integer: no fraction and no exponent.
func (s *scanner) number() (lit []byte, integer bool) {
	s.ws()
	start, d := s.off, s.data
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.fail()
		return nil, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		if i+1 >= len(d) || !isDigit(d[i+1]) {
			s.fail()
			return nil, false
		}
		i, integer = digits(d, i+1), false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.fail()
			return nil, false
		}
		i, integer = digits(d, i), false
	}
	s.off = i
	return d[start:i], integer
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// int64 reads an integer as encoding/json sets an int64 field: no
// fraction or exponent, and in range.
func (s *scanner) int64() int64 {
	lit, integer := s.number()
	if s.bad || !integer {
		s.fail()
		return 0
	}
	// ParseInt keeps no reference to the literal, which aliases s.data.
	v, err := strconv.ParseInt(unsafe.String(unsafe.SliceData(lit), len(lit)), 10, 64)
	if err != nil {
		s.fail()
	}
	return v
}

// int reads an integer that must fit an int.
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.fail()
	}
	return int(v)
}

// float reads a number as encoding/json sets a float64 field.
func (s *scanner) float() float64 {
	lit, _ := s.number()
	if s.bad {
		return 0
	}
	// An error copies the literal: nothing keeps the alias.
	f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(lit), len(lit)), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// bool reads true or false.
func (s *scanner) bool() bool {
	switch s.peek() {
	case 't':
		return s.literal("true")
	case 'f':
		s.literal("false")
		return false
	}
	s.fail()
	return false
}

// literal consumes lit and reports true, or fails.
func (s *scanner) literal(lit string) bool {
	if len(s.data)-s.off < len(lit) || string(s.data[s.off:s.off+len(lit)]) != lit {
		s.fail()
		return false
	}
	s.off += len(lit)
	return true
}

// skip steps over one value of any kind, null included, inside depth
// containers, checking it as encoding/json does there, and returns its
// bytes.
func (s *scanner) skip(depth int) []byte {
	s.ws()
	start := s.off
	s.value(depth)
	if s.bad {
		return nil
	}
	return s.data[start:s.off]
}

// value checks one value at nesting depth (the containers around it).
func (s *scanner) value(depth int) {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		if depth == maxJSONDepth {
			s.fail()
			return
		}
		s.off++
		close := byte(']')
		if c == '{' {
			close = '}'
		}
		for first := true; s.more(close, first); first = false {
			if c == '{' {
				s.quoted()
				s.expect(':')
			}
			s.value(depth + 1)
		}
	case c == '"':
		s.quoted()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	default:
		s.number()
	}
}

// validJSON reports whether data is one JSON value, as json.Valid does,
// and whether it holds whitespace between tokens, which compacting
// removes.
func validJSON(data []byte) (ok, spaced bool) {
	s := scanner{data: data}
	s.skip(0)
	return s.done(), s.spaced
}

// appendCompactJSON appends src, a valid JSON value, without whitespace
// between its tokens, as json.Compact does.
func appendCompactJSON(dst, src []byte) []byte {
	inString, escaped := false, false
	for _, c := range src {
		switch {
		case escaped:
			escaped = false
		case inString:
			escaped = c == '\\'
			inString = c != '"'
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// appendJSONString appends s quoted as encoding/json quotes it with HTML
// escaping off: quote, backslash and control characters escaped, U+2028
// and U+2029 escaped, each byte of invalid UTF-8 written as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// isFinite reports whether encoding/json encodes f: it refuses NaN and
// ±Inf.
func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat appends f, a finite float, as encoding/json writes a
// float64: the shortest decimal that round-trips, in exponent form below
// 1e-6 and from 1e21 on.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
