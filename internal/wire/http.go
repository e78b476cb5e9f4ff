package wire

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mpsched/internal/cliutil"
)

// This file is the HTTP side of the wire that mpschedd and mpschedrouter
// share: codec negotiation from a request, the JSON and error bodies,
// the deadline header, and the readers that turn a compile or batch body
// and its headers into decoded requests or answer why they cannot.

// DeadlineHeader carries a request's remaining time budget as a Go
// duration string (e.g. "250ms"). The server turns it into a context
// deadline around the compile, so work for a client that has already
// given up is cancelled at the next stage boundary instead of burning a
// worker. The binary codec additionally frames the deadline inline (see
// CompileRequest.Deadline); when both are present the smaller wins.
const DeadlineHeader = "X-Mpsched-Deadline"

// FormatDeadline renders a budget for the DeadlineHeader.
func FormatDeadline(d time.Duration) string { return d.String() }

// ParseDeadline parses a DeadlineHeader value: a Go duration string, or
// a bare integer meaning milliseconds. The zero string means no
// deadline. A parsed budget ≤ 0 is valid — it means "already expired" —
// and is returned as a negative duration, because the zero value is
// reserved for "no deadline": a client that explicitly says "0" has run
// out of budget, not declined to set one.
func ParseDeadline(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		ms, ierr := strconv.ParseInt(s, 10, 64)
		if ierr != nil {
			return 0, fmt.Errorf("wire: bad deadline %q: want a duration like \"250ms\" or integer milliseconds", s)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return -time.Nanosecond, nil
	}
	return d, nil
}

// minBudget merges the two budgets a request carries — the
// DeadlineHeader value and the binary codec's in-frame field — into the
// one that applies: the smaller, where 0 means none. Neither side can
// extend the other.
func minBudget(a, b time.Duration) time.Duration {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	}
	return b
}

// readDeadline parses r's DeadlineHeader, answering 400 when it is
// malformed.
func readDeadline(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	d, err := ParseDeadline(r.Header.Get(DeadlineHeader))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return 0, false
	}
	return d, true
}

// RequestCodec picks the body codec from Content-Type (see Negotiate).
func RequestCodec(r *http.Request) Codec {
	req, _ := Negotiate(r.Header.Get("Content-Type"), "")
	return req
}

// ResponseCodec picks the response codec: an explicit Accept for a
// registered type wins, otherwise responses mirror the request codec.
func ResponseCodec(r *http.Request) Codec {
	_, resp := Negotiate(r.Header.Get("Content-Type"), r.Header.Get("Accept"))
	return resp
}

// WriteJSON answers with status and body as JSON, HTML escaping off.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	_ = encodeJSON(w, body) // the connection failing mid-response is the client's problem
}

// WriteError answers with status and an ErrorResponse naming err on one
// line.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: strings.ReplaceAll(err.Error(), "\n", " ")})
}

// WriteRetryLater is the one funnel for backpressure answers — queue
// full, draining, brownout shedding, no backend: status and err, with
// Retry-After so a well-behaved client paces itself instead of
// hammering an overloaded server.
func WriteRetryLater(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, status, err)
}

// WriteDecodeError answers a body that did not decode: 413 when it ran
// over the size limit, 400 otherwise. what names the body ("request",
// "batch").
func WriteDecodeError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooLarge.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, fmt.Errorf("bad %s body: %w", what, err))
}

// WriteResponse answers 200 with a compile result in the negotiated
// response codec.
func WriteResponse(w http.ResponseWriter, r *http.Request, resp *CompileResponse) {
	codec := ResponseCodec(r)
	w.Header().Set("Content-Type", codec.ContentType())
	w.WriteHeader(http.StatusOK)
	_ = codec.EncodeResponse(w, resp) // the connection failing mid-response is the client's problem
}

// storeDecoder is the decode path of both registered codecs that
// ReadRequest and ReadBatch take: DecodeRequest and DecodeBatch with the
// inline graphs resolved through the caller's GraphStore.
type storeDecoder interface {
	decodeRequest(r io.Reader, req *CompileRequest, gs *GraphStore) error
	decodeBatch(r io.Reader, b *BatchRequest, gs *GraphStore) error
}

// ReadRequest decodes a POST /v1/compile or /v1/jobs body of at most
// maxBody bytes in the request codec, resolving its inline graph through
// gs (nil: decode it), hands its in-frame trace ID to adopt and merges
// the DeadlineHeader into req.Deadline. When ok is false it has answered
// the request: 413 or 400 for a body that did not decode, 400 for a
// malformed deadline header.
func ReadRequest(w http.ResponseWriter, r *http.Request, maxBody int64, gs *GraphStore, adopt func(traceID string)) (req CompileRequest, ok bool) {
	if err := RequestCodec(r).(storeDecoder).decodeRequest(http.MaxBytesReader(w, r.Body, maxBody), &req, gs); err != nil {
		WriteDecodeError(w, "request", err)
		return req, false
	}
	adopt(req.TraceID)
	hdr, ok := readDeadline(w, r)
	req.Deadline = minBudget(hdr, req.Deadline)
	return req, ok
}

// ReadBatch reads a POST /v1/batch envelope as ReadRequest reads one
// request, checking it carries 1 to maxJobs jobs; with a nil gs, each
// distinct inline graph of the envelope still decodes once. adopt, when
// non-nil, takes the first job's trace ID. It returns the header's own
// budget for the envelope's expiry check. When ok is false it has
// answered the request, also with a 400 for an empty or oversized
// envelope.
func ReadBatch(w http.ResponseWriter, r *http.Request, maxBody int64, maxJobs int, gs *GraphStore, adopt func(traceID string)) (b BatchRequest, budget time.Duration, ok bool) {
	if err := RequestCodec(r).(storeDecoder).decodeBatch(http.MaxBytesReader(w, r.Body, maxBody), &b, gs); err != nil {
		WriteDecodeError(w, "batch", err)
		return b, 0, false
	}
	switch {
	case len(b.Jobs) == 0:
		WriteError(w, http.StatusBadRequest, errors.New("empty batch: provide at least one job"))
		return b, 0, false
	case len(b.Jobs) > maxJobs:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("batch of %d jobs over the limit %d; split the envelope", len(b.Jobs), maxJobs))
		return b, 0, false
	}
	if adopt != nil {
		adopt(b.Jobs[0].TraceID)
	}
	budget, ok = readDeadline(w, r)
	for i := range b.Jobs {
		b.Jobs[i].Deadline = minBudget(budget, b.Jobs[i].Deadline)
	}
	return b, budget, ok
}

// ServeWorkloads serves GET /v1/workloads: the generator catalog, which
// is compiled into every daemon.
func ServeWorkloads(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, WorkloadsResponse{Workloads: cliutil.Catalog()})
}
