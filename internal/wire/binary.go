package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
	"unicode/utf8"

	"mpsched/internal/dfg"
)

// binaryCodec is the compact wire format ("application/x-mpsched-bin").
// Every message is a magic-tagged frame; all integers are varints
// (unsigned unless the field can be negative), strings are a uvarint
// length followed by raw bytes, floats are 8-byte little-endian IEEE
// 754. Graphs travel in the dfg binary framing (internal/dfg/binary.go)
// with its interned color tables. Encoders append into sync.Pool-backed
// buffers and issue one Write per message, and decoders read each body
// whole into the same pool, so on a hot client or server the wire
// allocates little beyond what the dfg codec takes per graph, which an
// envelope pays once per distinct graph.
//
//	request   "MPQ" 0x01, flags byte, name, workload, stop_after,
//	          [DFG bytes] [graph bytes] [select] [sched] [spans] [trace]
//	response  "MPS" 0x01, flags byte, name, nodes, edges, patterns,
//	          cycles, lower_bound, utilization, cycle_of, pattern_of,
//	          scheduler_patterns, stop_after, span, [census], stages,
//	          elapsed_ms, [trace]
//	batch     "MPB" 0x01, uvarint count, count × (uvarint len + request)
//	item      uvarint frame len + (index, status, error,
//	          result flag byte, [response frame])
//
// A batch response stream is just consecutive item frames until EOF.
// Decoding is hostile-input safe: counts are bounded by the remaining
// payload before any allocation, unknown flag bits are rejected, and
// embedded graphs go through the dfg binary decoder's full validation.
type binaryCodec struct{}

// Frame magics and the shared format version.
const (
	binaryVersion  = 1
	requestMagic   = "MPQ"
	responseMagic  = "MPS"
	batchMagic     = "MPB"
	maxStreamFrame = 64 << 20 // item frame cap when reading a stream
)

// Request flag bits.
const (
	reqHasDFG = 1 << iota
	reqHasGraph
	reqHasSelect
	reqHasSched
	reqHasSpans
	reqHasTrace
	reqHasDeadline

	reqFlagsMask = reqHasDFG | reqHasGraph | reqHasSelect | reqHasSched | reqHasSpans | reqHasTrace | reqHasDeadline
)

// Response flag bits.
const (
	respSweptSpans = 1 << iota
	respCacheHit
	respHasCensus
	respHasTrace

	respFlagsMask = respSweptSpans | respCacheHit | respHasCensus | respHasTrace
)

func (binaryCodec) Name() string              { return "binary" }
func (binaryCodec) ContentType() string       { return ContentTypeBinary }
func (binaryCodec) StreamContentType() string { return ContentTypeBinary }

// bufPool backs every binary encode and every body the decoders read
// whole; buffers grow to the largest message they carry and are reused
// across calls. A buffer that grew past maxPooledBuf is dropped instead,
// so one outsized message does not pin its size in the pool.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readBody reads r to EOF into a pooled buffer, as io.ReadAll reads into
// a fresh one; the caller hands it back with putBuf once decoded. Every
// decoder copies what it keeps (strings, slices, graphs), so nothing
// decoded aliases the buffer once it is back in the pool. Read errors
// pass through unwrapped.
func readBody(r io.Reader) (*[]byte, error) {
	bp, err := readAll(r)
	if err != nil {
		putBuf(bp)
		return nil, err
	}
	return bp, nil
}

// readAll reads r to EOF into a pooled buffer, or up to the read error
// that ended it, which it returns with the bytes read before it.
func readAll(r io.Reader) (*[]byte, error) {
	bp := getBuf()
	b := (*bp)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*bp = b
			if err == io.EOF {
				err = nil
			}
			return bp, err
		}
	}
}

func (binaryCodec) EncodeRequest(w io.Writer, req *CompileRequest) error {
	bp := getBuf()
	defer putBuf(bp)
	buf := appendRequest((*bp)[:0], req, nil)
	*bp = buf
	_, err := w.Write(buf)
	return err
}

func (c binaryCodec) DecodeRequest(r io.Reader, req *CompileRequest) error {
	return c.decodeRequest(r, req, nil)
}

func (binaryCodec) decodeRequest(r io.Reader, req *CompileRequest, gs *GraphStore) error {
	bp, err := readBody(r)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	rd := reader{buf: *bp}
	graphs, texts := newMemos(gs, false)
	if err := decodeRequest(&rd, req, graphs, texts); err != nil {
		return err
	}
	return rd.expectEOF()
}

func (binaryCodec) EncodeResponse(w io.Writer, resp *CompileResponse) error {
	bp := getBuf()
	defer putBuf(bp)
	buf := appendResponse((*bp)[:0], resp)
	*bp = buf
	_, err := w.Write(buf)
	return err
}

func (binaryCodec) DecodeResponse(r io.Reader, resp *CompileResponse) error {
	bp, err := readBody(r)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	rd := reader{buf: *bp}
	if err := decodeResponse(&rd, resp); err != nil {
		return err
	}
	return rd.expectEOF()
}

func (binaryCodec) EncodeBatch(w io.Writer, b *BatchRequest) error {
	bp := getBuf()
	defer putBuf(bp)
	sub := getBuf()
	defer putBuf(sub)

	buf := append((*bp)[:0], batchMagic...)
	buf = append(buf, binaryVersion)
	buf = binary.AppendUvarint(buf, uint64(len(b.Jobs)))
	// Job frames accumulate in sub instead of overwriting each other, so
	// the graph frames recorded in graphs stay valid for later jobs.
	graphs := map[*dfg.Graph][]byte{}
	frames := (*sub)[:0]
	for i := range b.Jobs {
		start := len(frames)
		frames = appendRequest(frames, &b.Jobs[i], graphs)
		buf = binary.AppendUvarint(buf, uint64(len(frames)-start))
		buf = append(buf, frames[start:]...)
	}
	*sub, *bp = frames, buf
	_, err := w.Write(buf)
	return err
}

func (c binaryCodec) DecodeBatch(r io.Reader, b *BatchRequest) error {
	return c.decodeBatch(r, b, nil)
}

func (binaryCodec) decodeBatch(r io.Reader, b *BatchRequest, gs *GraphStore) error {
	bp, err := readBody(r)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	return decodeBatch(*bp, b, gs)
}

// decodeBatch decodes the batch envelope in data into b, resolving its
// inline graphs through gs.
func decodeBatch(data []byte, b *BatchRequest, gs *GraphStore) error {
	rd := reader{buf: data}
	if got := string(rd.take(len(batchMagic))); got != batchMagic && rd.err == nil {
		return fmt.Errorf("%w: bad batch magic", ErrFormat)
	}
	if v := rd.byte(); v != binaryVersion && rd.err == nil {
		return fmt.Errorf("%w: unknown batch version %d", ErrFormat, v)
	}
	n := rd.count()
	if rd.err != nil {
		return rd.err
	}
	jobs := make([]CompileRequest, 0, n)
	graphs, texts := newMemos(gs, true)
	for i := 0; i < n; i++ {
		frame := rd.bytes()
		if rd.err != nil {
			return rd.err
		}
		sub := reader{buf: frame}
		var req CompileRequest
		err := decodeRequest(&sub, &req, graphs, texts)
		if err == nil {
			err = sub.expectEOF()
		}
		if err != nil {
			return fmt.Errorf("batch job %d: %w", i, err)
		}
		jobs = append(jobs, req)
	}
	if err := rd.expectEOF(); err != nil {
		return err
	}
	b.Jobs = jobs
	return nil
}

func (binaryCodec) NewItemWriter(w io.Writer) ItemWriter { return &binItemWriter{w: w} }

// NewItemReader reads r through a pooled buffered reader, which goes
// back to the pool when the stream ends: at io.EOF or at the first error.
func (binaryCodec) NewItemReader(r io.Reader) ItemReader {
	br := itemReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return &binItemReader{r: br}
}

// itemReaders recycles the buffered readers of binary item streams, so a
// client or a router forward does not allocate a fresh 4 KiB buffer for
// every envelope's answer.
var itemReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

type binItemWriter struct{ w io.Writer }

func (iw *binItemWriter) WriteItem(it *BatchItem) error {
	bp := getBuf()
	defer putBuf(bp)
	sub := getBuf()
	defer putBuf(sub)

	frame := binary.AppendVarint((*sub)[:0], int64(it.Index))
	frame = binary.AppendUvarint(frame, uint64(it.Status))
	frame = appendWireString(frame, it.Error)
	if it.Result != nil {
		frame = append(frame, 1)
		frame = appendResponse(frame, it.Result)
	} else {
		frame = append(frame, 0)
	}
	*sub = frame

	buf := binary.AppendUvarint((*bp)[:0], uint64(len(frame)))
	buf = append(buf, frame...)
	*bp = buf
	_, err := iw.w.Write(buf)
	return err
}

// binItemReader reads item frames into one buffer, reused across the
// items of a stream: decodeResponse copies what it keeps. Once the
// stream has ended, r is back in the pool and nil, and every further
// read returns end, the error that ended it.
type binItemReader struct {
	r     *bufio.Reader
	frame []byte
	end   error
}

func (ir *binItemReader) ReadItem(it *BatchItem) error {
	if ir.r == nil {
		return ir.end
	}
	err := ir.readItem(it)
	if err != nil {
		ir.r.Reset(nil) // the pool must not keep the stream's reader alive
		itemReaders.Put(ir.r)
		ir.r, ir.end = nil, err
	}
	return err
}

func (ir *binItemReader) readItem(it *BatchItem) error {
	n, err := binary.ReadUvarint(ir.r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: truncated item frame length", ErrFormat)
		}
		return err // io.EOF: clean end of stream
	}
	if n > maxStreamFrame {
		return fmt.Errorf("%w: item frame of %d bytes exceeds the %d limit", ErrFormat, n, maxStreamFrame)
	}
	if uint64(cap(ir.frame)) < n {
		ir.frame = make([]byte, n)
	}
	frame := ir.frame[:n]
	if _, err := io.ReadFull(ir.r, frame); err != nil {
		return fmt.Errorf("%w: truncated item frame", ErrFormat)
	}
	rd := reader{buf: frame}
	*it = BatchItem{
		Index:  int(rd.varint()),
		Status: int(rd.uvarint()),
		Error:  rd.string(),
	}
	switch rd.byte() {
	case 0:
	case 1:
		var resp CompileResponse
		if err := decodeResponse(&rd, &resp); err != nil {
			return err
		}
		it.Result = &resp
	default:
		if rd.err == nil {
			return fmt.Errorf("%w: bad item result flag", ErrFormat)
		}
	}
	if rd.err != nil {
		return rd.err
	}
	return rd.expectEOF()
}

// ---- request framing ----

// appendRequest appends req's frame to buf. graphs, when non-nil, holds
// the frames of the graphs already encoded into the envelope, by graph:
// a graph found there is copied instead of encoded again, and one that
// is not is encoded and recorded, as a slice of buf that the caller
// must not overwrite while graphs is in use.
func appendRequest(buf []byte, req *CompileRequest, graphs map[*dfg.Graph][]byte) []byte {
	buf = append(buf, requestMagic...)
	buf = append(buf, binaryVersion)
	var flags byte
	if len(req.DFG) > 0 {
		flags |= reqHasDFG
	}
	if req.Graph != nil {
		flags |= reqHasGraph
	}
	if req.Select != nil {
		flags |= reqHasSelect
	}
	if req.Sched != nil {
		flags |= reqHasSched
	}
	if len(req.Spans) > 0 {
		flags |= reqHasSpans
	}
	if req.TraceID != "" {
		flags |= reqHasTrace
	}
	if req.Deadline > 0 {
		flags |= reqHasDeadline
	}
	buf = append(buf, flags)
	buf = appendWireString(buf, req.Name)
	buf = appendWireString(buf, req.Workload)
	buf = appendWireString(buf, req.StopAfter)
	if flags&reqHasDFG != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.DFG)))
		buf = append(buf, req.DFG...)
	}
	if flags&reqHasGraph != 0 {
		// Length-prefix the embedded dfg frame so the request decoder can
		// delegate to the graph decoder with exact bounds.
		mark := len(buf)
		buf = append(buf, 0, 0, 0, 0) // room for a 4-byte fixed prefix
		if frame, ok := graphs[req.Graph]; ok {
			buf = append(buf, frame...)
		} else {
			buf = req.Graph.AppendBinary(buf)
			if graphs != nil {
				graphs[req.Graph] = buf[mark+4:]
			}
		}
		binary.LittleEndian.PutUint32(buf[mark:], uint32(len(buf)-mark-4))
	}
	if c := req.Select; c != nil {
		buf = binary.AppendVarint(buf, int64(c.C))
		buf = binary.AppendVarint(buf, int64(c.Pdef))
		buf = binary.AppendVarint(buf, int64(c.Span))
		buf = appendFloat(buf, c.Epsilon)
		buf = appendFloat(buf, c.Alpha)
	}
	if c := req.Sched; c != nil {
		buf = appendWireString(buf, c.Priority)
		buf = appendWireString(buf, c.Tie)
		buf = binary.AppendVarint(buf, c.Seed)
		buf = binary.AppendVarint(buf, c.SwitchPenalty)
	}
	if flags&reqHasSpans != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.Spans)))
		for _, s := range req.Spans {
			buf = binary.AppendVarint(buf, int64(s))
		}
	}
	if flags&reqHasTrace != 0 {
		buf = appendWireString(buf, req.TraceID)
	}
	if flags&reqHasDeadline != 0 {
		buf = binary.AppendUvarint(buf, uint64(req.Deadline))
	}
	return buf
}

// decodeRequest decodes one request frame. The error is a fault of the
// framing; an inline graph that was read intact but did not decode is
// the request's own fault (graphErr), and the rest of it still decodes.
// Inline graphs decode through the request's or the envelope's memos,
// graphs for the dfg binary framing and texts for dfg JSON.
func decodeRequest(rd *reader, req *CompileRequest, graphs, texts graphMemo) error {
	if got := string(rd.take(len(requestMagic))); got != requestMagic && rd.err == nil {
		return fmt.Errorf("%w: bad request magic", ErrFormat)
	}
	if v := rd.byte(); v != binaryVersion && rd.err == nil {
		return fmt.Errorf("%w: unknown request version %d", ErrFormat, v)
	}
	flags := rd.byte()
	if rd.err == nil && flags&^byte(reqFlagsMask) != 0 {
		return fmt.Errorf("%w: unknown request flags %#x", ErrFormat, flags)
	}
	*req = CompileRequest{
		Name:      rd.string(),
		Workload:  rd.string(),
		StopAfter: rd.string(),
	}
	var dfgJSON []byte
	if flags&reqHasDFG != 0 {
		dfgJSON = rd.bytes()
	}
	if flags&reqHasGraph != 0 {
		n := int(rd.u32())
		if rd.err == nil && n > len(rd.buf)-rd.off {
			return fmt.Errorf("%w: graph length %d exceeds %d remaining bytes", ErrFormat, n, len(rd.buf)-rd.off)
		}
		frame := rd.take(n)
		if rd.err != nil {
			return rd.err
		}
		req.Graph, req.graphErr = graphs.decode(frame)
	}
	req.decodeDFG(dfgJSON, texts)
	if flags&reqHasSelect != 0 {
		req.Select = &SelectConfig{
			C:       int(rd.varint()),
			Pdef:    int(rd.varint()),
			Span:    int(rd.varint()),
			Epsilon: rd.float(),
			Alpha:   rd.float(),
		}
	}
	if flags&reqHasSched != 0 {
		req.Sched = &SchedConfig{
			Priority:      rd.string(),
			Tie:           rd.string(),
			Seed:          rd.varint(),
			SwitchPenalty: rd.varint(),
		}
	}
	if flags&reqHasSpans != 0 {
		n := rd.count()
		if rd.err == nil && n > 0 {
			req.Spans = make([]int, 0, n)
			for i := 0; i < n && rd.err == nil; i++ {
				req.Spans = append(req.Spans, int(rd.varint()))
			}
		}
	}
	if flags&reqHasTrace != 0 {
		req.TraceID = rd.string()
	}
	if flags&reqHasDeadline != 0 {
		req.Deadline = time.Duration(rd.uvarint())
	}
	return rd.err
}

// ---- response framing ----

func appendResponse(buf []byte, resp *CompileResponse) []byte {
	buf = append(buf, responseMagic...)
	buf = append(buf, binaryVersion)
	var flags byte
	if resp.SweptSpans {
		flags |= respSweptSpans
	}
	if resp.CacheHit {
		flags |= respCacheHit
	}
	if resp.Census != nil {
		flags |= respHasCensus
	}
	if resp.TraceID != "" {
		flags |= respHasTrace
	}
	buf = append(buf, flags)
	buf = appendWireString(buf, resp.Name)
	buf = binary.AppendUvarint(buf, uint64(resp.Nodes))
	buf = binary.AppendUvarint(buf, uint64(resp.EdgesCount))
	buf = appendStrings(buf, resp.Patterns)
	buf = binary.AppendUvarint(buf, uint64(resp.Cycles))
	buf = binary.AppendUvarint(buf, uint64(resp.LowerBound))
	buf = appendFloat(buf, resp.Utilization)
	buf = appendInts(buf, resp.CycleOf)
	buf = appendInts(buf, resp.PatternOf)
	buf = appendStrings(buf, resp.SchedulerPatterns)
	buf = appendWireString(buf, resp.StopAfter)
	buf = binary.AppendVarint(buf, int64(resp.Span))
	if c := resp.Census; c != nil {
		buf = binary.AppendVarint(buf, int64(c.Antichains))
		buf = binary.AppendVarint(buf, int64(c.Classes))
		buf = binary.AppendVarint(buf, int64(c.Span))
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.Stages)))
	for _, st := range resp.Stages {
		buf = appendWireString(buf, st.Stage)
		buf = appendFloat(buf, st.MS)
	}
	buf = appendFloat(buf, resp.ElapsedMS)
	if flags&respHasTrace != 0 {
		buf = appendWireString(buf, resp.TraceID)
	}
	return buf
}

func decodeResponse(rd *reader, resp *CompileResponse) error {
	if got := string(rd.take(len(responseMagic))); got != responseMagic && rd.err == nil {
		return fmt.Errorf("%w: bad response magic", ErrFormat)
	}
	if v := rd.byte(); v != binaryVersion && rd.err == nil {
		return fmt.Errorf("%w: unknown response version %d", ErrFormat, v)
	}
	flags := rd.byte()
	if rd.err == nil && flags&^byte(respFlagsMask) != 0 {
		return fmt.Errorf("%w: unknown response flags %#x", ErrFormat, flags)
	}
	*resp = CompileResponse{
		SweptSpans:        flags&respSweptSpans != 0,
		CacheHit:          flags&respCacheHit != 0,
		Name:              rd.string(),
		Nodes:             int(rd.uvarint()),
		EdgesCount:        int(rd.uvarint()),
		Patterns:          rd.strings(),
		Cycles:            int(rd.uvarint()),
		LowerBound:        int(rd.uvarint()),
		Utilization:       rd.float(),
		CycleOf:           rd.ints(),
		PatternOf:         rd.ints(),
		SchedulerPatterns: rd.strings(),
		StopAfter:         rd.string(),
		Span:              int(rd.varint()),
	}
	if flags&respHasCensus != 0 {
		resp.Census = &CensusResponse{
			Antichains: int(rd.varint()),
			Classes:    int(rd.varint()),
			Span:       int(rd.varint()),
		}
	}
	if n := rd.count(); rd.err == nil && n > 0 {
		resp.Stages = make([]StageTimingResponse, 0, n)
		for i := 0; i < n && rd.err == nil; i++ {
			resp.Stages = append(resp.Stages, StageTimingResponse{
				Stage: rd.string(),
				MS:    rd.float(),
			})
		}
	}
	resp.ElapsedMS = rd.float()
	if flags&respHasTrace != 0 {
		resp.TraceID = rd.string()
	}
	return rd.err
}

// ---- primitives ----

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendWireString(buf, s)
	}
	return buf
}

func appendInts(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// reader is a cursor over one frame with sticky error handling, the same
// shape as internal/dfg's binary reader: decode code reads fields
// linearly and checks err at block boundaries. Counts that size
// allocations are bounded by the remaining payload first, so hostile
// headers cannot force large allocations.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrFormat, r.off)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
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

func (r *reader) varint() int64 {
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

// count reads a uvarint that sizes an upcoming allocation, bounding it
// by the remaining input: every counted element occupies at least one
// byte, so a larger count is hostile framing.
func (r *reader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrFormat, v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) float() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) string() string {
	n := r.count()
	if r.err != nil || n == 0 {
		return ""
	}
	b := r.take(n)
	if r.err == nil && !utf8.Valid(b) {
		r.err = fmt.Errorf("%w: invalid UTF-8 in string at byte %d", ErrFormat, r.off)
		return ""
	}
	return string(b)
}

// bytes reads a uvarint-length-prefixed byte run without copying.
func (r *reader) bytes() []byte {
	return r.take(r.count())
}

func (r *reader) strings() []string {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.string())
	}
	return out
}

func (r *reader) ints() []int {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int(r.varint()))
	}
	return out
}

func (r *reader) expectEOF() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(r.buf)-r.off)
	}
	return nil
}
