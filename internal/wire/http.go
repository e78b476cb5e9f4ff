package wire

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"mpsched/internal/cliutil"
)

// This file is the HTTP side of the wire that mpschedd and mpschedrouter
// share: codec negotiation from a request, the JSON and error bodies,
// and the readers that turn a compile or batch body into its request
// type or answer why it cannot.

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

// ReadRequest decodes a POST /v1/compile or /v1/jobs body of at most
// maxBody bytes in the request codec. When ok is false it has answered
// the request (see WriteDecodeError).
func ReadRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (req CompileRequest, ok bool) {
	if err := RequestCodec(r).DecodeRequest(http.MaxBytesReader(w, r.Body, maxBody), &req); err != nil {
		WriteDecodeError(w, "request", err)
		return req, false
	}
	return req, true
}

// ReadBatch decodes a POST /v1/batch envelope of at most maxBody bytes
// in the request codec and checks it carries 1 to maxJobs jobs. When ok
// is false it has answered the request: 413 or 400 for a body that did
// not decode, 400 for an empty or oversized envelope.
func ReadBatch(w http.ResponseWriter, r *http.Request, maxBody int64, maxJobs int) (b BatchRequest, ok bool) {
	if err := RequestCodec(r).DecodeBatch(http.MaxBytesReader(w, r.Body, maxBody), &b); err != nil {
		WriteDecodeError(w, "batch", err)
		return b, false
	}
	switch {
	case len(b.Jobs) == 0:
		WriteError(w, http.StatusBadRequest, errors.New("empty batch: provide at least one job"))
	case len(b.Jobs) > maxJobs:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("batch of %d jobs over the limit %d; split the envelope", len(b.Jobs), maxJobs))
	default:
		return b, true
	}
	return b, false
}

// ServeWorkloads serves GET /v1/workloads: the generator catalog, which
// is compiled into every daemon.
func ServeWorkloads(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, WorkloadsResponse{Workloads: cliutil.Catalog()})
}
