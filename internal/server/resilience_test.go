package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"mpsched/internal/faults"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// TestDeadlineHeaderExpired: a request whose X-Mpsched-Deadline budget
// is already gone gets an immediate 504 — no compile runs for a client
// that stopped waiting.
func TestDeadlineHeaderExpired(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	for _, route := range []string{"/v1/compile", "/v1/jobs"} {
		req, err := http.NewRequest(http.MethodPost, c.BaseURL()+route, strings.NewReader(`{"workload":"3dft"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(wire.DeadlineHeader, "-5ms")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s with expired deadline: status %d, want 504", route, resp.StatusCode)
		}
	}

	// A generous budget compiles normally.
	req, _ := http.NewRequest(http.MethodPost, c.BaseURL()+"/v1/compile", strings.NewReader(`{"workload":"3dft"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "30s")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile with 30s budget: status %d, want 200", resp.StatusCode)
	}

	// A malformed deadline is the client's fault.
	req, _ = http.NewRequest(http.MethodPost, c.BaseURL()+"/v1/compile", strings.NewReader(`{"workload":"3dft"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "whenever")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline header: status %d, want 400", resp.StatusCode)
	}
}

// TestDeadlineBinaryFrame: the binary codec carries the budget inside
// the frame; a budget too small for any compile turns into a 504 at the
// first stage boundary.
func TestDeadlineBinaryFrame(t *testing.T) {
	_, c := newTestServer(t, server.Options{CacheEntries: -1})
	var body bytes.Buffer
	req := server.CompileRequest{Workload: "3dft", Deadline: time.Nanosecond}
	if err := wire.Binary.EncodeRequest(&body, &req); err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, c.BaseURL()+"/v1/compile", wire.Binary.ContentType(), "", body.Bytes())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns in-frame budget: status %d (%s), want 504", resp.StatusCode, data)
	}
}

// TestPanicIsolation is the acceptance scenario: a compile that panics
// (injected via the chaos hook) turns into a per-item 500 while its
// batch neighbours succeed and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	inj := faults.New(faults.Config{CompilePanic: "boom"})
	_, c := newTestServer(t, server.Options{Faults: inj})

	reqs := []server.CompileRequest{
		{Workload: "3dft", Name: "calm-0"},
		{Workload: "3dft", Name: "boom-1"},
		{Workload: "3dft", Name: "calm-2"},
		{Workload: "3dft", Name: "calm-3"},
	}
	items, err := c.CompileBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("got %d items, want %d", len(items), len(reqs))
	}
	byIdx := map[int]server.BatchItem{}
	for _, it := range items {
		byIdx[it.Index] = it
	}
	if got := byIdx[1]; got.Status != http.StatusInternalServerError || !strings.Contains(got.Error, "panic") {
		t.Errorf("panicking job: status %d error %q, want 500 mentioning the panic", got.Status, got.Error)
	}
	for _, i := range []int{0, 2, 3} {
		if got := byIdx[i]; got.Status != http.StatusOK || got.Result == nil {
			t.Errorf("neighbour %d: status %d, want 200 with a result", i, got.Status)
		}
	}

	// The sync path isolates the same way: one 500, not a dead daemon.
	if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft", Name: "boom-sync"}); err == nil {
		t.Error("sync compile of a panicking job should fail")
	} else {
		var api *client.APIError
		if !errors.As(err, &api) || api.StatusCode != http.StatusInternalServerError {
			t.Errorf("sync panic error = %v, want APIError 500", err)
		}
	}

	// Daemon survived all of it.
	if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft", Name: "calm-after"}); err != nil {
		t.Fatalf("daemon did not survive the panics: %v", err)
	}
	if inj.Stats().Panic < 2 {
		t.Errorf("injected panics = %d, want ≥ 2", inj.Stats().Panic)
	}
	body := getBody(t, c.BaseURL()+"/metrics")
	if !strings.Contains(body, "mpschedd_panics_total") {
		t.Error("metrics missing mpschedd_panics_total")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTruncatedFrameAtConnection sends a binary frame that dies mid-body
// at the TCP level — the server reads a partial frame then EOF. It must
// answer 400 (the half-closed connection still carries the response) and
// keep serving afterwards.
func TestTruncatedFrameAtConnection(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	addr := strings.TrimPrefix(c.BaseURL(), "http://")

	var compileBody, batchBody bytes.Buffer
	if err := wire.Binary.EncodeRequest(&compileBody, &server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Binary.EncodeBatch(&batchBody, &server.BatchRequest{Jobs: []server.CompileRequest{
		{Workload: "3dft"}, {Workload: "fft:4"},
	}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path string
		full []byte
	}{
		{"/v1/compile", compileBody.Bytes()},
		{"/v1/batch", batchBody.Bytes()},
	}
	for _, tc := range cases {
		for _, cut := range []int{1, len(tc.full) / 2, len(tc.full) - 1} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
				tc.path, addr, wire.Binary.ContentType(), len(tc.full))
			if _, err := conn.Write(tc.full[:cut]); err != nil {
				t.Fatal(err)
			}
			// Half-close: body ends early but the response path stays open.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("%s cut at %d/%d: reading response: %v", tc.path, cut, len(tc.full), err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			conn.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s cut at %d/%d: status %d, want 400", tc.path, cut, len(tc.full), resp.StatusCode)
			}
		}
	}

	// The server shrugged it all off.
	if _, err := c.Compile(context.Background(), server.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatalf("server unhealthy after truncated frames: %v", err)
	}
}
