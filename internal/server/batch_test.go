package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mpsched/internal/cliutil"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// TestBatchIdenticalColdJobsCompileOnce: a cold envelope of 16 identical
// jobs runs one census. Exactly one item is a cache miss, and all 16
// carry the same result.
func TestBatchIdenticalColdJobsCompileOnce(t *testing.T) {
	g, err := cliutil.Generate("fft:8")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]server.CompileRequest, 16)
	for i := range jobs {
		jobs[i] = server.CompileRequest{Graph: g, Select: &server.SelectConfig{Pdef: 3}}
	}
	for _, codec := range wire.Codecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			s, c := newTestServer(t, server.Options{})
			items, err := c.WithCodec(codec).CompileBatch(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			misses := 0
			var want *server.CompileResponse
			for _, it := range items {
				if it.Status != http.StatusOK {
					t.Fatalf("job %d: %d %s", it.Index, it.Status, it.Error)
				}
				if !it.Result.CacheHit {
					misses++
				}
				got := *it.Result
				got.CacheHit, got.ElapsedMS, got.Stages = false, 0, nil
				if want == nil {
					want = &got
				} else if !reflect.DeepEqual(&got, want) {
					t.Errorf("job %d answered %+v, job %d %+v", it.Index, got, items[0].Index, *want)
				}
			}
			if misses != 1 {
				t.Errorf("%d of %d items are cache misses, want 1", misses, len(items))
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if census := `mpschedd_stage_seconds_count{stage="census"} 1` + "\n"; !strings.Contains(rec.Body.String(), census) {
				t.Errorf("metrics lack %q: the envelope ran more than one census", strings.TrimSpace(census))
			}
		})
	}
}

// TestBatchMixedOutcomes pins per-job error isolation: one envelope
// mixing a good job, an unknown workload, a compile failure and a
// partial compile yields four items with their own statuses — no job
// poisons its neighbours, and every index comes back exactly once.
func TestBatchMixedOutcomes(t *testing.T) {
	for _, codec := range wire.Codecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			_, c := newTestServer(t, server.Options{})
			items, err := c.WithCodec(codec).CompileBatch(context.Background(), []server.CompileRequest{
				{Workload: "3dft"},
				{Workload: "no-such-workload:9"},
				// One selected pattern over one color cannot cover 3dft's
				// three colors: a guaranteed scheduling failure.
				{Workload: "3dft", Name: "starved", Select: &server.SelectConfig{C: 1, Pdef: 1}},
				{Workload: "fft:4", StopAfter: "census"},
			})
			if err != nil {
				t.Fatal(err)
			}
			byIndex := map[int]server.BatchItem{}
			for _, it := range items {
				byIndex[it.Index] = it
			}
			if len(byIndex) != 4 {
				t.Fatalf("got %d distinct items, want 4: %+v", len(byIndex), items)
			}
			if it := byIndex[0]; it.Status != http.StatusOK || it.Result == nil || it.Result.Cycles <= 0 {
				t.Errorf("job 0 = %+v, want 200 with a schedule", it)
			}
			if it := byIndex[1]; it.Status != http.StatusBadRequest || it.Error == "" || it.Result != nil {
				t.Errorf("job 1 = %+v, want a 400 with an error", it)
			}
			if it := byIndex[2]; it.Status != http.StatusUnprocessableEntity || it.Error == "" {
				t.Errorf("job 2 = %+v, want a 422 compile failure", it)
			}
			if it := byIndex[3]; it.Status != http.StatusOK || it.Result == nil ||
				it.Result.Census == nil || it.Result.Cycles != 0 || it.Result.StopAfter != "census" {
				t.Errorf("job 3 = %+v, want a 200 census-only result", it)
			}
		})
	}
}

// TestBatchPartialDoesNotPoisonCache pins that a stop_after job in a
// batch never masquerades as the full compile in the result cache: the
// full compile of the same spec afterwards is a cache miss with a real
// schedule.
func TestBatchPartialDoesNotPoisonCache(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	items, err := c.CompileBatch(context.Background(), []server.CompileRequest{
		{Workload: "ndft:4", StopAfter: "census"},
		{Workload: "ndft:4", StopAfter: "select"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Status != http.StatusOK {
			t.Fatalf("partial job failed: %+v", it)
		}
	}
	full, err := c.Compile(context.Background(), server.CompileRequest{Workload: "ndft:4"})
	if err != nil {
		t.Fatal(err)
	}
	if full.CacheHit {
		t.Error("full compile hit the cache entry of a partial compile")
	}
	if full.Cycles <= 0 || len(full.CycleOf) != full.Nodes {
		t.Errorf("full compile after partials is degenerate: %+v", full)
	}
	// The select partial, re-requested, is the cached partial — under its
	// own stop-tagged key, still without a schedule. (Census-only results
	// are never cached; see internal/pipeline.)
	again, err := c.CompileBatch(context.Background(), []server.CompileRequest{
		{Workload: "ndft:4", StopAfter: "select"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].Result.CacheHit || again[0].Result.Cycles != 0 {
		t.Errorf("re-requested partial = %+v, want a select-only cache hit", again[0].Result)
	}
}

// TestBatchPerJobAdmission pins that admission is per job, not per
// envelope: with capacity 2, a 5-job envelope admits exactly 2 and 429s
// exactly 3 — deterministically, because every job is admitted before
// any compile starts.
func TestBatchPerJobAdmission(t *testing.T) {
	_, c := newTestServer(t, server.Options{QueueDepth: 2})
	reqs := make([]server.CompileRequest, 5)
	for i := range reqs {
		reqs[i] = server.CompileRequest{Workload: "3dft"}
	}
	items, err := c.CompileBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	ok, rejected := 0, 0
	for _, it := range items {
		switch it.Status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if !strings.Contains(it.Error, "retry") {
				t.Errorf("429 item has no retry hint: %+v", it)
			}
		default:
			t.Errorf("unexpected status in %+v", it)
		}
	}
	if ok != 2 || rejected != 3 {
		t.Fatalf("admitted %d, rejected %d; want 2 and 3", ok, rejected)
	}
}

func TestBatchEnvelopeLimits(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxBatchJobs: 2})

	var apiErr *client.APIError
	_, err := c.CompileBatch(context.Background(), make([]server.CompileRequest, 3))
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized envelope: got %v, want a 400", err)
	}
	_, err = c.CompileBatch(context.Background(), nil)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty envelope: got %v, want a 400", err)
	}
}

// TestCompileContentNegotiation pins the codec-selection rules at the
// raw HTTP level: no Content-Type means JSON in and out (the pre-codec
// wire, what curl sends), the binary type switches both directions, and
// Accept overrides the response side independently. Errors are always
// JSON.
func TestCompileContentNegotiation(t *testing.T) {
	s := server.New(server.Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	post := func(t *testing.T, contentType, accept string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	jsonBody := []byte(`{"workload":"3dft"}`)
	var binBody bytes.Buffer
	if err := wire.Binary.EncodeRequest(&binBody, &wire.CompileRequest{Workload: "3dft"}); err != nil {
		t.Fatal(err)
	}

	t.Run("bare POST is JSON end to end", func(t *testing.T) {
		resp := post(t, "", "", jsonBody)
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out wire.CompileResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Cycles <= 0 {
			t.Fatalf("decode: %v, %+v", err, out)
		}
	})

	t.Run("binary in, binary out", func(t *testing.T) {
		resp := post(t, wire.ContentTypeBinary, "", binBody.Bytes())
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentTypeBinary {
			t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out wire.CompileResponse
		if err := wire.Binary.DecodeResponse(resp.Body, &out); err != nil || out.Cycles <= 0 {
			t.Fatalf("decode: %v, %+v", err, out)
		}
	})

	t.Run("binary in, Accept json out", func(t *testing.T) {
		resp := post(t, wire.ContentTypeBinary, wire.ContentTypeJSON, binBody.Bytes())
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out wire.CompileResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Cycles <= 0 {
			t.Fatalf("decode: %v, %+v", err, out)
		}
	})

	t.Run("json in, Accept binary out", func(t *testing.T) {
		resp := post(t, "", wire.ContentTypeBinary, jsonBody)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentTypeBinary {
			t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out wire.CompileResponse
		if err := wire.Binary.DecodeResponse(resp.Body, &out); err != nil || out.Cycles <= 0 {
			t.Fatalf("decode: %v, %+v", err, out)
		}
	})

	t.Run("binary errors are JSON", func(t *testing.T) {
		resp := post(t, wire.ContentTypeBinary, "", []byte("not a frame"))
		if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var e wire.ErrorResponse
		data, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Fatalf("error body %q", data)
		}
	})
}
