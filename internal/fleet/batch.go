package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// handleBatch serves POST /v1/batch through the fleet: the envelope is
// decoded once, each job routed by its own fingerprint, jobs sharing an
// owner re-bundled into one sub-envelope per backend, and the results
// merged back onto the client's stream in completion order with their
// original envelope indices. The endpoint's per-job status model
// survives the hop — a job that cannot be routed (bad request, expired
// deadline, no backend) becomes its own item, never an envelope fault.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	dt := tr.Begin("decode")
	b, hdrBudget, ok := wire.ReadBatch(w, r, rt.opts.MaxBodyBytes, rt.opts.MaxBatchJobs, rt.graphs, tr.AdoptID)
	dt.End()
	if !ok {
		return
	}
	if hdrBudget < 0 {
		rt.writeExpired(w, hdrBudget)
		return
	}

	// Route every job before streaming starts: per-job faults become
	// immediate items, the rest group by ring owner.
	start := time.Now()
	at := tr.Begin("admit")
	ring := rt.pool.ring.Load()
	keys := make([]string, len(b.Jobs))
	var immediate []wire.BatchItem
	groups := map[int][]int{} // owner backend index → original job indices
	for i := range b.Jobs {
		if b.Jobs[i].Deadline < 0 {
			immediate = append(immediate, wire.BatchItem{Index: i, Status: http.StatusGatewayTimeout,
				Error: "deadline expired before the forward started"})
			continue
		}
		key, err := rt.requestKey(&b.Jobs[i])
		if err != nil {
			immediate = append(immediate, wire.BatchItem{Index: i, Status: http.StatusBadRequest, Error: err.Error()})
			continue
		}
		keys[i] = key
		owner, ok := ring.owner(fnv1a64(key))
		if !ok {
			immediate = append(immediate, unavailableItem(i))
			continue
		}
		groups[owner] = append(groups[owner], i)
	}
	at.End()

	w.Header().Set("Content-Type", wire.ResponseCodec(r).StreamContentType())
	w.WriteHeader(http.StatusOK)
	lw := &lockedItemWriter{iw: wire.ResponseCodec(r).NewItemWriter(w)}
	if f, ok := w.(http.Flusher); ok {
		lw.fl = f
	}
	lw.writeAll(immediate)

	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			rt.forwardBatchGroup(r, tr, lw, b.Jobs, keys, idxs, owner, start)
		}(owner, idxs)
	}
	wg.Wait()
}

// unavailableItem is the per-job 503 for a job no backend can serve.
func unavailableItem(idx int) wire.BatchItem {
	return wire.BatchItem{Index: idx, Status: http.StatusServiceUnavailable,
		Error: "no backend available for this job; retry later"}
}

// forwardBatchGroup sends one owner's jobs as a sub-envelope, failing
// the whole sub-envelope over to the next ring replica on
// transport-class faults. Items are only emitted from a successful
// forward (the client layer validates exactly one item per job), so a
// retried sub-envelope can never duplicate or lose an item — the
// invariant the kill-a-backend chaos test pins.
func (rt *Router) forwardBatchGroup(r *http.Request, tr *obs.Trace, lw *lockedItemWriter, jobs []wire.CompileRequest, keys []string, idxs []int, owner int, start time.Time) {
	seq := rt.pool.ring.Load().sequence(fnv1a64(keys[idxs[0]]), make([]int, 0, len(rt.pool.backends)))
	// The snapshot above may already have moved on; make sure the group's
	// owner is attempted first regardless.
	if len(seq) == 0 || seq[0] != owner {
		ordered := append(make([]int, 0, len(seq)+1), owner)
		for _, m := range seq {
			if m != owner {
				ordered = append(ordered, m)
			}
		}
		seq = ordered
	}

	remaining := idxs
	for attempt, bi := range seq {
		b := rt.pool.backends[bi]
		if attempt > 0 && !b.Up() {
			continue
		}
		// Build the attempt's sub-envelope, expiring jobs whose budget ran
		// out while earlier replicas failed.
		sub := make([]wire.CompileRequest, 0, len(remaining))
		subIdx := make([]int, 0, len(remaining))
		var expired []wire.BatchItem
		for _, oi := range remaining {
			freq := jobs[oi]
			if freq.Deadline > 0 {
				rem := freq.Deadline - time.Since(start)
				if rem <= 0 {
					expired = append(expired, wire.BatchItem{Index: oi, Status: http.StatusGatewayTimeout,
						Error: "deadline expired before the forward started"})
					continue
				}
				// The binary forward frames each job's decremented budget;
				// the envelope header (from the attempt context) caps all.
				freq.Deadline = rem
			}
			freq.TraceID = tr.ID()
			sub = append(sub, freq)
			subIdx = append(subIdx, oi)
		}
		lw.writeAll(expired)
		if len(sub) == 0 {
			return
		}
		remaining = subIdx

		// Per-job budgets ride the frames; the envelope-level header the
		// attempt emits only needs to cap a hung backend.
		var items []wire.BatchItem
		err := rt.attempt(r.Context(), tr, b, 0, start, attempt > 0, func(ctx context.Context) (err error) {
			items, err = b.c.CompileBatch(ctx, sub)
			return err
		})
		if err == nil {
			for i := range items {
				items[i].Index = subIdx[items[i].Index]
			}
			lw.writeAll(items)
			return
		}
		if errors.Is(err, errFailover) {
			continue
		}
		// The backend answered the envelope with a 4xx (shedding, refusal):
		// relay it per item so neighbours in other groups are untouched.
		var api *client.APIError
		if errors.As(err, &api) {
			out := make([]wire.BatchItem, len(remaining))
			for i, oi := range remaining {
				out[i] = wire.BatchItem{Index: oi, Status: api.StatusCode, Error: api.Message}
			}
			lw.writeAll(out)
			return
		}
		// The client's own context died; nothing useful left to write.
		return
	}

	// Every replica is down for this group: 503, per job.
	out := make([]wire.BatchItem, 0, len(remaining))
	for _, oi := range remaining {
		out = append(out, unavailableItem(oi))
	}
	lw.writeAll(out)
}

// lockedItemWriter serialises merge-order writes from the per-group
// goroutines onto the one client stream, flushing per burst.
type lockedItemWriter struct {
	mu sync.Mutex
	iw wire.ItemWriter
	fl http.Flusher
}

func (lw *lockedItemWriter) writeAll(items []wire.BatchItem) {
	if len(items) == 0 {
		return
	}
	lw.mu.Lock()
	for i := range items {
		// A mid-stream write error means the client went away; the other
		// groups still finish (their results warm backend caches).
		_ = lw.iw.WriteItem(&items[i])
	}
	if lw.fl != nil {
		lw.fl.Flush()
	}
	lw.mu.Unlock()
}
