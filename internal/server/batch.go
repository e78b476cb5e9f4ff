package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
	"mpsched/internal/wire"
)

// handleBatch serves POST /v1/batch: one envelope of N compile jobs, one
// stream of N results. The envelope decodes in the request codec and the
// items stream back in the response codec's item framing (NDJSON for
// JSON, length-prefixed frames for binary), flushed as each job
// finishes — in completion order, tagged with the job's envelope index.
//
// Job isolation is the point of the endpoint's status model: every job
// carries its own HTTP-equivalent status inside its item (400 bad
// request, 413 oversized graph, 429 not admitted, 422 compile error, 200
// with a result), so one bad job never fails its neighbours. Only
// envelope-level faults — an undecodable envelope, too many jobs, a
// draining server — fail the whole request, before any item is written.
//
// Admission is per-job and deterministic: each job try-acquires from
// batchSem (capacity QueueDepth, shared across envelopes) before any
// compile starts, so when capacity runs out mid-envelope the overflow
// jobs 429 immediately — the same contract as /v1/jobs, applied at item
// granularity.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.shedSyncWork(w) {
		return
	}
	tr := obs.FromContext(r.Context())
	dt := tr.Begin("decode")
	// The envelope-level budget comes from the deadline header; each job
	// may additionally carry its own in the binary frame, and its Deadline
	// is the smaller of the two.
	b, hdrBudget, ok := wire.ReadBatch(w, r, s.opts.MaxBodyBytes, s.opts.MaxBatchJobs, nil, nil)
	dt.End()
	if !ok {
		return
	}
	if s.draining.Load() {
		s.metrics.batchRejected.Add(int64(len(b.Jobs)))
		wire.WriteRetryLater(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	if hdrBudget < 0 {
		s.writeExpired(w, hdrBudget)
		return
	}

	// Every job's item lands in out, and compile goroutines hand finished
	// items over a buffered channel (capacity = envelope size, so a slow
	// client never blocks a compile past its own item).
	out := make([]BatchItem, len(b.Jobs))
	items := make(chan *BatchItem, len(b.Jobs))
	finish := func(it BatchItem) {
		out[it.Index] = it
		items <- &out[it.Index]
	}

	// Resolve and admit every job before streaming starts: rejections are
	// decided up front (and written first), so admission never depends on
	// how fast earlier compiles run.
	type pending struct {
		idx    int
		spec   pipeline.Spec
		budget time.Duration
	}
	at := tr.Begin("admit")
	admitted := make([]pending, 0, len(b.Jobs))
	for i := range b.Jobs {
		budget := b.Jobs[i].Deadline
		if budget < 0 {
			s.metrics.deadlineExpired.Add(1)
			finish(BatchItem{Index: i, Status: http.StatusGatewayTimeout,
				Error: "deadline expired before the compile started"})
			continue
		}
		spec, err := toSpec(b.Jobs[i], s.workloads)
		if err != nil {
			finish(BatchItem{Index: i, Status: http.StatusBadRequest, Error: errString(err)})
			continue
		}
		if n := spec.Graph.N(); n > s.opts.MaxSyncNodes {
			finish(BatchItem{Index: i, Status: http.StatusRequestEntityTooLarge,
				Error: fmt.Sprintf("graph has %d nodes, over the synchronous limit %d; submit it to POST /v1/jobs", n, s.opts.MaxSyncNodes)})
			continue
		}
		select {
		case s.batchSem <- struct{}{}:
			admitted = append(admitted, pending{idx: i, spec: spec, budget: budget})
		default:
			s.metrics.batchRejected.Add(1)
			finish(BatchItem{Index: i, Status: http.StatusTooManyRequests,
				Error: fmt.Sprintf("batch capacity full (%d in flight); retry later", s.opts.QueueDepth)})
		}
	}
	at.End()
	s.metrics.batchJobs.Add(int64(len(admitted)))
	s.metrics.inflightBatch.Add(int64(len(admitted)))
	// Every admitted job records a compile span, plus the request-level
	// decode/admit/stage:cache/flush spans; pre-sizing skips the
	// append-growth copies on the storm path.
	tr.Grow(len(admitted) + 4)

	w.Header().Set("Content-Type", wire.ResponseCodec(r).StreamContentType())
	w.WriteHeader(http.StatusOK)
	iw := wire.ResponseCodec(r).NewItemWriter(w)
	flusher, _ := w.(http.Flusher)

	// One writer goroutine owns the stream, fed by the items channel, where
	// the rejections already wait. The writer drains every item already
	// waiting before paying a flush: under a fast cache-hit storm that
	// turns one syscall per item into one per burst, which is most of the
	// endpoint's throughput at small graphs.
	//
	// The writer also owns the envelope's per-job trace spans, derived
	// from the telemetry each successful item already carries (the
	// response's ElapsedMS / CacheHit): compile goroutines never touch
	// the trace, and the writer bulk-appends the burst's spans under one
	// lock, against one clock reading — per-job span cost is two struct
	// stores instead of a time.Now plus a mutex round-trip each, which is
	// what keeps tracing overhead within budget on the batched binary
	// storm path. The trade: a batch compile span's placement is
	// burst-granular (end ≈ the burst's flush, start = end − elapsed); its
	// duration is exact. Items without a Result (pre-compile rejections,
	// compile errors) get no compile span; their latency still reaches
	// the outcome-labeled metrics from the compile goroutine.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		trStart := tr.StartTime()
		// Scratch for one burst's spans, reused across bursts. Starts
		// small — it only needs to cover the largest burst, not the whole
		// envelope, and append growth handles storm-sized bursts.
		spans := make([]obs.Span, 0, 32)
		var flushTotal, cacheTotal time.Duration
		var cacheHits int
		add := func(it *BatchItem) {
			if it.Result == nil {
				return
			}
			elapsed := time.Duration(it.Result.ElapsedMS * float64(time.Millisecond))
			// Start holds −elapsed until the burst's single clock reading
			// fixes it up below — no per-item time.Now.
			spans = append(spans, obs.Span{Name: "compile", Job: it.Index, Start: -elapsed, Duration: elapsed})
			if it.Result.CacheHit {
				cacheTotal += elapsed
				cacheHits++
			}
		}
		for it := range items {
			t0 := time.Now()
			spans = spans[:0]
			add(it)
			// A mid-stream write error means the client went away; the
			// remaining compiles still run (their results may be cached).
			_ = iw.WriteItem(it)
		drain:
			for {
				select {
				case more, ok := <-items:
					if !ok {
						break drain
					}
					add(more)
					_ = iw.WriteItem(more)
				default:
					break drain
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			now := time.Now()
			end := now.Sub(trStart)
			for i := range spans {
				spans[i].Start += end
			}
			flushTotal += now.Sub(t0)
			tr.ObserveSpans(spans...)
		}
		// Aggregate spans for the whole stream: per-burst flush spans and
		// per-job cache spans would dominate the trace's span list (and
		// the ring's live memory) at storm rates without adding much
		// signal — each job's compile span already carries its exact
		// duration, and a cache hit's compile IS its cache lookup.
		end := time.Now()
		if cacheHits > 0 {
			tr.Observe("stage:cache", -1, end.Add(-cacheTotal), cacheTotal)
		}
		tr.Observe("flush", -1, end.Add(-flushTotal), flushTotal)
	}()

	// All jobs share one stage hook: per-stage spans on a batch envelope
	// are envelope-level (job -1) — a per-job closure here is a measurable
	// allocation on the storm path, and cache hits never fire it anyway.
	// For the same reason all jobs share one run function, which takes
	// its job by index into admitted.
	hook := s.stageHook(tr, -1)
	var wg sync.WaitGroup
	wg.Add(len(admitted))
	run := func(k int) {
		defer wg.Done()
		defer s.metrics.inflightBatch.Add(-1)
		defer func() { <-s.batchSem }()
		p := &admitted[k]
		p.spec.Hook = hook
		// compileJob's panic perimeter is what makes the endpoint's
		// isolation promise hold for compiler bugs too: a panicking job
		// becomes its own 500 item while its neighbours stream normally.
		// No trace here: the stream writer derives the compile spans.
		jctx, cancel := withBudget(r.Context(), p.budget)
		defer cancel()
		rep, err := s.compileJob(jctx, nil, p.spec)
		if err != nil {
			finish(BatchItem{Index: p.idx, Status: s.compileFailureStatus(r.Context(), jctx, err), Error: errString(err)})
			return
		}
		// Batch items deliberately omit the per-item trace_id: every
		// item would repeat the envelope's one ID, which the client
		// already has from the X-Mpsched-Trace response header — at
		// batch 64 the repetition is a measurable share of the
		// response bytes.
		finish(BatchItem{Index: p.idx, Status: http.StatusOK, Result: s.toResponse(rep, p.spec.StopAfter)})
	}
	for k := range admitted {
		// Jobs run on the persistent worker pool; when it is saturated (or
		// drained away) a fresh goroutine keeps the envelope moving rather
		// than blocking the handler on pool capacity.
		select {
		case s.batchWork <- batchTask{run, k}:
		default:
			go run(k)
		}
	}
	wg.Wait()
	close(items)
	<-writerDone
}

// batchTask is one admitted job of a batch envelope for the batch
// workers: run(k) compiles the envelope's k-th admitted job.
type batchTask struct {
	run func(k int)
	k   int
}
