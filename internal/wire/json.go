package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"

	"mpsched/internal/dfg"
)

// jsonCodec is the original serving wire format. Encoded bytes are
// bit-compatible with what the server spoke before codecs existed:
// requests decode with unknown fields rejected, responses encode with
// HTML escaping off, exactly as the handlers used to do inline. A request
// or batch body is one JSON value: anything but whitespace after it
// fails the body, as trailing bytes fail a binary one. Requests and
// responses are read and written by hand (jsontext.go), with
// encoding/json as the decoder of any body not in the canonical form; a
// body is read whole into a pooled buffer first, as the binary codec
// reads one. Batch envelopes and items stay on encoding/json.
type jsonCodec struct{}

func (jsonCodec) Name() string              { return "json" }
func (jsonCodec) ContentType() string       { return ContentTypeJSON }
func (jsonCodec) StreamContentType() string { return StreamContentTypeJSON }

// withDFG returns req with any decoded Graph lowered to the DFG JSON
// field, since JSON bodies carry graphs only in that shape. texts, when
// non-nil, holds the graphs already lowered for the envelope, by graph,
// and gains this one.
func withDFG(req *CompileRequest, texts map[*dfg.Graph][]byte) (*CompileRequest, error) {
	if req.Graph == nil || len(req.DFG) != 0 {
		return req, nil
	}
	data, ok := texts[req.Graph]
	if !ok {
		var err error
		if data, err = json.Marshal(req.Graph); err != nil {
			return nil, err
		}
		if texts != nil {
			texts[req.Graph] = data
		}
	}
	clone := *req
	clone.DFG = data
	clone.Graph = nil
	return &clone, nil
}

func (jsonCodec) EncodeRequest(w io.Writer, req *CompileRequest) error {
	req, err := withDFG(req, nil)
	if err != nil {
		return err
	}
	return writeJSON(w, req, appendRequestJSON)
}

func (c jsonCodec) DecodeRequest(r io.Reader, req *CompileRequest) error {
	return c.decodeRequest(r, req, nil)
}

func (jsonCodec) decodeRequest(r io.Reader, req *CompileRequest, gs *GraphStore) error {
	body := readJSONBody(r)
	defer putBuf(body.buf)
	var got CompileRequest
	s := body.scanner(isZero(req))
	s.request(&got)
	if s.done() {
		*req = got
	} else if err := decodeStrict(body.fallback(), req); err != nil {
		return err
	}
	req.decodeDFG(req.DFG, graphMemo{form: formJSON, store: gs})
	return nil
}

func (jsonCodec) EncodeResponse(w io.Writer, resp *CompileResponse) error {
	return writeJSON(w, resp, appendResponseJSON)
}

func (jsonCodec) DecodeResponse(r io.Reader, resp *CompileResponse) error {
	body := readJSONBody(r)
	defer putBuf(body.buf)
	var got CompileResponse
	s := body.scanner(isZero(resp))
	s.response(&got)
	if s.done() {
		*resp = got
		return nil
	}
	return json.NewDecoder(body.fallback()).Decode(resp)
}

func (jsonCodec) EncodeBatch(w io.Writer, b *BatchRequest) error {
	jobs := b.Jobs
	out := BatchRequest{Jobs: make([]CompileRequest, len(jobs))}
	texts := map[*dfg.Graph][]byte{}
	for i := range jobs {
		req, err := withDFG(&jobs[i], texts)
		if err != nil {
			return err
		}
		out.Jobs[i] = *req
	}
	return encodeJSON(w, &out)
}

func (c jsonCodec) DecodeBatch(r io.Reader, b *BatchRequest) error {
	return c.decodeBatch(r, b, nil)
}

func (jsonCodec) decodeBatch(r io.Reader, b *BatchRequest, gs *GraphStore) error {
	if err := decodeStrict(r, b); err != nil {
		return err
	}
	texts := graphMemo{form: formJSON, store: gs, seen: map[string]decodedGraph{}}
	for i := range b.Jobs {
		b.Jobs[i].decodeDFG(b.Jobs[i].DFG, texts)
	}
	return nil
}

// decodeStrict decodes a batch body, or a request body that is not
// canonical: with encoding/json, unknown fields refused, and nothing but
// whitespace after the value.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return expectEnd(dec)
}

// errTrailingJSON is a request or batch body that holds more than its
// one JSON value, which the binary codec's "trailing bytes" matches.
var errTrailingJSON = errors.New("wire: trailing data after the JSON value")

// expectEnd fails unless only whitespace follows the value dec has
// decoded: the next token must be the end of the input. A read error
// other than the end passes through unwrapped.
func expectEnd(dec *json.Decoder) error {
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil, err == io.ErrUnexpectedEOF, errors.As(err, &syntax):
		return errTrailingJSON // a token, or the start of one
	}
	return err
}

// NewItemWriter streams items as NDJSON: json.Encoder terminates every
// document with a newline, which is the whole framing.
func (jsonCodec) NewItemWriter(w io.Writer) ItemWriter {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return jsonItemWriter{enc}
}

func (jsonCodec) NewItemReader(r io.Reader) ItemReader {
	return jsonItemReader{json.NewDecoder(r)}
}

type jsonItemWriter struct{ enc *json.Encoder }

func (w jsonItemWriter) WriteItem(it *BatchItem) error { return w.enc.Encode(it) }

type jsonItemReader struct{ dec *json.Decoder }

func (r jsonItemReader) ReadItem(it *BatchItem) error { return r.dec.Decode(it) }

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// writeJSON writes v as appendJSON renders it, ended by the newline
// json.Encoder ends a value with, in one Write. A value appendJSON
// refuses goes to encoding/json, which writes nothing and says why.
func writeJSON[T any](w io.Writer, v *T, appendJSON func([]byte, *T) ([]byte, bool)) error {
	bp := getBuf()
	defer putBuf(bp)
	buf, ok := appendJSON((*bp)[:0], v)
	*bp = buf
	if !ok {
		return encodeJSON(w, v)
	}
	*bp = append(buf, '\n')
	_, err := w.Write(*bp)
	return err
}

// jsonBody is a request or response body read whole into a pooled
// buffer, which the reader hands back with putBuf.
type jsonBody struct {
	buf *[]byte
	err error // the read error that ended the body, nil at its end
}

func readJSONBody(r io.Reader) jsonBody {
	bp, err := readAll(r)
	return jsonBody{bp, err}
}

// scanner returns a scanner over the body, already failed when the body
// did not read to its end or its destination is not zero: encoding/json
// decodes those.
func (b jsonBody) scanner(zero bool) scanner {
	return scanner{data: *b.buf, bad: b.err != nil || !zero}
}

// fallback replays what encoding/json would have read from the body's
// reader: its bytes, then the error that ended them.
func (b jsonBody) fallback() io.Reader {
	src := io.Reader(bytes.NewReader(*b.buf))
	if b.err != nil {
		src = io.MultiReader(src, errReader{b.err})
	}
	return src
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// isZero reports whether *v is its type's zero value. The hand-written
// decoders fill only a zero destination; encoding/json merges a body
// into any other.
func isZero[T any](v *T) bool { return reflect.ValueOf(v).Elem().IsZero() }
