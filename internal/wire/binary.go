package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"mpsched/internal/dfg"
	"mpsched/internal/frame"
)

// binaryCodec is the compact wire format ("application/x-mpsched-bin").
// Every message is a magic-tagged frame of internal/frame's primitives:
// integers are varints (unsigned unless the field can be negative),
// strings are length-prefixed UTF-8, floats are 8-byte little-endian
// IEEE 754. Graphs travel in the dfg binary framing (internal/dfg/binary.go)
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
// Decoding is hostile-input safe: the frame reader bounds counts by the
// remaining payload before any allocation, unknown flag bits are
// rejected, and embedded graphs go through the dfg binary decoder's full
// validation.
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
	rd := frame.NewReader(*bp, ErrFormat)
	graphs, texts := newMemos(gs, false)
	if err := decodeRequest(&rd, req, graphs, texts); err != nil {
		return err
	}
	return rd.End()
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
	rd := frame.NewReader(*bp, ErrFormat)
	if err := decodeResponse(&rd, resp); err != nil {
		return err
	}
	return rd.End()
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
		buf = frame.AppendBytes(buf, frames[start:])
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
	rd := frame.NewReader(data, ErrFormat)
	if got := string(rd.Take(len(batchMagic))); got != batchMagic && rd.Err() == nil {
		return fmt.Errorf("%w: bad batch magic", ErrFormat)
	}
	if v := rd.Byte(); v != binaryVersion && rd.Err() == nil {
		return fmt.Errorf("%w: unknown batch version %d", ErrFormat, v)
	}
	n := rd.Count()
	if rd.Err() != nil {
		return rd.Err()
	}
	jobs := make([]CompileRequest, 0, n)
	graphs, texts := newMemos(gs, true)
	for i := 0; i < n; i++ {
		job := rd.Bytes()
		if rd.Err() != nil {
			return rd.Err()
		}
		sub := frame.NewReader(job, ErrFormat)
		var req CompileRequest
		err := decodeRequest(&sub, &req, graphs, texts)
		if err == nil {
			err = sub.End()
		}
		if err != nil {
			return fmt.Errorf("batch job %d: %w", i, err)
		}
		jobs = append(jobs, req)
	}
	if err := rd.End(); err != nil {
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

	item := binary.AppendVarint((*sub)[:0], int64(it.Index))
	item = binary.AppendUvarint(item, uint64(it.Status))
	item = frame.AppendString(item, it.Error)
	if it.Result != nil {
		item = append(item, 1)
		item = appendResponse(item, it.Result)
	} else {
		item = append(item, 0)
	}
	*sub = item

	buf := frame.AppendBytes((*bp)[:0], item)
	*bp = buf
	_, err := iw.w.Write(buf)
	return err
}

// errUvarintOverflow is the error binary.ReadUvarint returns, unexported,
// for a uvarint longer than 64 bits.
var _, errUvarintOverflow = binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))

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
	switch {
	case err == io.ErrUnexpectedEOF:
		return fmt.Errorf("%w: truncated item frame length", ErrFormat)
	case err == errUvarintOverflow:
		return fmt.Errorf("%w: item frame length overflows 64 bits", ErrFormat)
	case err != nil:
		return err // io.EOF: clean end of stream; else the stream's read error
	}
	if n > maxStreamFrame {
		return fmt.Errorf("%w: item frame of %d bytes exceeds the %d limit", ErrFormat, n, maxStreamFrame)
	}
	if uint64(cap(ir.frame)) < n {
		ir.frame = make([]byte, n)
	}
	item := ir.frame[:n]
	if _, err := io.ReadFull(ir.r, item); err != nil {
		return fmt.Errorf("%w: truncated item frame", ErrFormat)
	}
	rd := frame.NewReader(item, ErrFormat)
	*it = BatchItem{
		Index:  int(rd.Varint()),
		Status: int(rd.Uvarint()),
		Error:  rd.String(),
	}
	switch rd.Byte() {
	case 0:
	case 1:
		var resp CompileResponse
		if err := decodeResponse(&rd, &resp); err != nil {
			return err
		}
		it.Result = &resp
	default:
		if rd.Err() == nil {
			return fmt.Errorf("%w: bad item result flag", ErrFormat)
		}
	}
	return rd.End()
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
	buf = frame.AppendString(buf, req.Name)
	buf = frame.AppendString(buf, req.Workload)
	buf = frame.AppendString(buf, req.StopAfter)
	if flags&reqHasDFG != 0 {
		buf = frame.AppendBytes(buf, req.DFG)
	}
	if flags&reqHasGraph != 0 {
		// Length-prefix the embedded dfg frame so the request decoder can
		// delegate to the graph decoder with exact bounds.
		mark := len(buf)
		buf = append(buf, 0, 0, 0, 0) // room for a 4-byte fixed prefix
		if enc, ok := graphs[req.Graph]; ok {
			buf = append(buf, enc...)
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
		buf = frame.AppendFloat64(buf, c.Epsilon)
		buf = frame.AppendFloat64(buf, c.Alpha)
	}
	if c := req.Sched; c != nil {
		buf = frame.AppendString(buf, c.Priority)
		buf = frame.AppendString(buf, c.Tie)
		buf = binary.AppendVarint(buf, c.Seed)
		buf = binary.AppendVarint(buf, c.SwitchPenalty)
	}
	if flags&reqHasSpans != 0 {
		buf = frame.AppendInts(buf, req.Spans)
	}
	if flags&reqHasTrace != 0 {
		buf = frame.AppendString(buf, req.TraceID)
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
func decodeRequest(rd *frame.Reader, req *CompileRequest, graphs, texts graphMemo) error {
	if got := string(rd.Take(len(requestMagic))); got != requestMagic && rd.Err() == nil {
		return fmt.Errorf("%w: bad request magic", ErrFormat)
	}
	if v := rd.Byte(); v != binaryVersion && rd.Err() == nil {
		return fmt.Errorf("%w: unknown request version %d", ErrFormat, v)
	}
	flags := rd.Byte()
	if rd.Err() == nil && flags&^byte(reqFlagsMask) != 0 {
		return fmt.Errorf("%w: unknown request flags %#x", ErrFormat, flags)
	}
	*req = CompileRequest{
		Name:      rd.String(),
		Workload:  rd.String(),
		StopAfter: rd.String(),
	}
	var dfgJSON []byte
	if flags&reqHasDFG != 0 {
		dfgJSON = rd.Bytes()
	}
	if flags&reqHasGraph != 0 {
		n := int(rd.U32())
		if rd.Err() == nil && n > rd.Remaining() {
			return fmt.Errorf("%w: graph length %d exceeds %d remaining bytes", ErrFormat, n, rd.Remaining())
		}
		raw := rd.Take(n)
		if rd.Err() != nil {
			return rd.Err()
		}
		req.Graph, req.graphErr = graphs.decode(raw)
	}
	req.decodeDFG(dfgJSON, texts)
	if flags&reqHasSelect != 0 {
		req.Select = &SelectConfig{
			C:       int(rd.Varint()),
			Pdef:    int(rd.Varint()),
			Span:    int(rd.Varint()),
			Epsilon: rd.Float64(),
			Alpha:   rd.Float64(),
		}
	}
	if flags&reqHasSched != 0 {
		req.Sched = &SchedConfig{
			Priority:      rd.String(),
			Tie:           rd.String(),
			Seed:          rd.Varint(),
			SwitchPenalty: rd.Varint(),
		}
	}
	if flags&reqHasSpans != 0 {
		req.Spans = rd.Ints()
	}
	if flags&reqHasTrace != 0 {
		req.TraceID = rd.String()
	}
	if flags&reqHasDeadline != 0 {
		req.Deadline = time.Duration(rd.Uvarint())
	}
	return rd.Err()
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
	buf = frame.AppendString(buf, resp.Name)
	buf = binary.AppendUvarint(buf, uint64(resp.Nodes))
	buf = binary.AppendUvarint(buf, uint64(resp.EdgesCount))
	buf = frame.AppendStrings(buf, resp.Patterns)
	buf = binary.AppendUvarint(buf, uint64(resp.Cycles))
	buf = binary.AppendUvarint(buf, uint64(resp.LowerBound))
	buf = frame.AppendFloat64(buf, resp.Utilization)
	buf = frame.AppendInts(buf, resp.CycleOf)
	buf = frame.AppendInts(buf, resp.PatternOf)
	buf = frame.AppendStrings(buf, resp.SchedulerPatterns)
	buf = frame.AppendString(buf, resp.StopAfter)
	buf = binary.AppendVarint(buf, int64(resp.Span))
	if c := resp.Census; c != nil {
		buf = binary.AppendVarint(buf, int64(c.Antichains))
		buf = binary.AppendVarint(buf, int64(c.Classes))
		buf = binary.AppendVarint(buf, int64(c.Span))
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.Stages)))
	for _, st := range resp.Stages {
		buf = frame.AppendString(buf, st.Stage)
		buf = frame.AppendFloat64(buf, st.MS)
	}
	buf = frame.AppendFloat64(buf, resp.ElapsedMS)
	if flags&respHasTrace != 0 {
		buf = frame.AppendString(buf, resp.TraceID)
	}
	return buf
}

func decodeResponse(rd *frame.Reader, resp *CompileResponse) error {
	if got := string(rd.Take(len(responseMagic))); got != responseMagic && rd.Err() == nil {
		return fmt.Errorf("%w: bad response magic", ErrFormat)
	}
	if v := rd.Byte(); v != binaryVersion && rd.Err() == nil {
		return fmt.Errorf("%w: unknown response version %d", ErrFormat, v)
	}
	flags := rd.Byte()
	if rd.Err() == nil && flags&^byte(respFlagsMask) != 0 {
		return fmt.Errorf("%w: unknown response flags %#x", ErrFormat, flags)
	}
	*resp = CompileResponse{
		SweptSpans:        flags&respSweptSpans != 0,
		CacheHit:          flags&respCacheHit != 0,
		Name:              rd.String(),
		Nodes:             int(rd.Uvarint()),
		EdgesCount:        int(rd.Uvarint()),
		Patterns:          rd.Strings(),
		Cycles:            int(rd.Uvarint()),
		LowerBound:        int(rd.Uvarint()),
		Utilization:       rd.Float64(),
		CycleOf:           rd.Ints(),
		PatternOf:         rd.Ints(),
		SchedulerPatterns: rd.Strings(),
		StopAfter:         rd.String(),
		Span:              int(rd.Varint()),
	}
	if flags&respHasCensus != 0 {
		resp.Census = &CensusResponse{
			Antichains: int(rd.Varint()),
			Classes:    int(rd.Varint()),
			Span:       int(rd.Varint()),
		}
	}
	if n := rd.Count(); rd.Err() == nil && n > 0 {
		resp.Stages = make([]StageTimingResponse, 0, n)
		for i := 0; i < n && rd.Err() == nil; i++ {
			resp.Stages = append(resp.Stages, StageTimingResponse{
				Stage: rd.String(),
				MS:    rd.Float64(),
			})
		}
	}
	resp.ElapsedMS = rd.Float64()
	if flags&respHasTrace != 0 {
		resp.TraceID = rd.String()
	}
	return rd.Err()
}
