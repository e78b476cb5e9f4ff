// Package wire is the canonical registry of the serving stack's wire
// formats. A Codec turns the request/response types in types.go into
// bytes and back; the server picks one per connection from the request's
// Content-Type (and the response codec from Accept), so new formats are
// a registry entry, not a handler rewrite.
//
// Two codecs ship today:
//
//   - JSON — the original, human-debuggable format ("application/json").
//     Its byte shape is bit-compatible with what the server spoke before
//     this package existed; curl without a Content-Type lands here.
//   - Binary — a compact length-prefixed framing
//     ("application/x-mpsched-bin") with varint integers, interned color
//     tables for graphs (see internal/dfg/binary.go) and pooled encode
//     buffers, for high-throughput clients.
//
// Both codecs carry the same model: anything encodable in one decodes
// from the other with identical meaning (fingerprint-level for graphs),
// so clients may mix formats freely — including asking for a JSON error
// body on a binary request, which is in fact the only option: errors are
// always JSON (see ErrorResponse).
//
// Batching: a BatchRequest envelope carries N compile jobs in one round
// trip; results stream back as BatchItems in completion order through an
// ItemWriter/ItemReader pair. JSON streams items as NDJSON, Binary as
// length-prefixed frames.
//
// Decoding: this package is the one place a compile request is decoded,
// for mpschedd and mpschedrouter alike. Both codecs decode an inline
// graph into CompileRequest.Graph, keeping one that does not decode as
// the request's own GraphErr, and ReadRequest and ReadBatch merge the
// DeadlineHeader into each request's Deadline. Within one batch
// envelope, jobs with equal graph bytes share one decoded graph (or
// GraphErr), and EncodeBatch encodes a graph that several jobs share
// once. Across requests, ReadRequest and ReadBatch share only what the
// caller's GraphStore holds: the router passes one, the daemon none.
//
// The JSON codec reads and writes the two messages every JSON compile
// passes through — the request and the response — by hand, and leaves
// any body not in their canonical form to encoding/json, so each body
// gets the answer encoding/json gives it. Batch envelopes and items stay
// on encoding/json.
package wire

import (
	"errors"
	"io"
	"strings"
)

// Content types the registry resolves. Requests with no Content-Type
// default to JSON, preserving the pre-codec wire behaviour.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-mpsched-bin"

	// StreamContentTypeJSON is the batch item stream framing for the JSON
	// codec: newline-delimited JSON, one BatchItem per line.
	StreamContentTypeJSON = "application/x-ndjson"
)

// ErrFormat reports a malformed frame at the wire layer (bad magic,
// unknown version or flags, truncation, hostile counts). Graph-level
// structural errors keep their dfg typed errors.
var ErrFormat = errors.New("wire: malformed frame")

// Codec encodes and decodes the serving wire types. Implementations are
// stateless and safe for concurrent use.
type Codec interface {
	// Name is the codec's registry key ("json", "binary") — what CLI
	// -codec flags take.
	Name() string
	// ContentType is the MIME type of request and response bodies.
	ContentType() string
	// StreamContentType is the MIME type of a batch item stream.
	StreamContentType() string

	EncodeRequest(w io.Writer, req *CompileRequest) error
	// DecodeRequest reads one request body. Read errors from r (e.g.
	// *http.MaxBytesError) pass through un-wrapped so callers can map
	// them to statuses. An inline graph that does not decode is
	// req.GraphErr, not an error.
	DecodeRequest(r io.Reader, req *CompileRequest) error
	EncodeResponse(w io.Writer, resp *CompileResponse) error
	DecodeResponse(r io.Reader, resp *CompileResponse) error
	EncodeBatch(w io.Writer, b *BatchRequest) error
	DecodeBatch(r io.Reader, b *BatchRequest) error

	// NewItemWriter frames BatchItems onto w, one WriteItem call each.
	NewItemWriter(w io.Writer) ItemWriter
	// NewItemReader unframes BatchItems from r; ReadItem returns io.EOF
	// after the last item.
	NewItemReader(r io.Reader) ItemReader
}

// ItemWriter writes one BatchItem per call onto a batch response stream.
type ItemWriter interface {
	WriteItem(it *BatchItem) error
}

// ItemReader reads BatchItems off a batch response stream until io.EOF.
type ItemReader interface {
	ReadItem(it *BatchItem) error
}

// The registered codecs.
var (
	JSON   Codec = jsonCodec{}
	Binary Codec = binaryCodec{}
)

// Codecs lists every registered codec, JSON first (the default).
func Codecs() []Codec { return []Codec{JSON, Binary} }

// ByName resolves a codec by registry name ("json", "binary").
func ByName(name string) (Codec, bool) {
	for _, c := range Codecs() {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// ByContentType resolves a codec from a Content-Type or Accept header
// value, tolerating parameters ("application/json; charset=utf-8").
func ByContentType(ct string) (Codec, bool) {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.ToLower(strings.TrimSpace(ct))
	for _, c := range Codecs() {
		if c.ContentType() == ct {
			return c, true
		}
	}
	return nil, false
}
