package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mpsched/internal/antichain"
	"mpsched/internal/dfg"
	"mpsched/internal/fleet"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/sched"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// replayRequests is how many requests netReplay sends: enough that its
// p99s have more than minBeyond samples beyond them.
const replayRequests = 1200

// netReplay sends the workload's distinct inputs, one request at a time,
// as single compiles in its codec through a router in front of one daemon
// with a memory result store. It measures the layers the workload's own
// path lacks (the router hop everywhere but mixed-fleet, the store on
// cold-corpus, store puts on the warm workloads) on the workload's inputs.
func netReplay(ctx context.Context, e *env) ([]span, error) {
	tr := newTracer()
	re := &env{w: e.w, tr: tr}
	defer re.close()
	url, err := re.daemon(server.Options{Cache: re.cache(pipeline.NewShardedCache(0, 0))})
	if err != nil {
		return nil, err
	}
	rt, err := fleet.New(fleet.Options{Backends: []string{url}})
	if err != nil {
		return nil, err
	}
	re.closers = append(re.closers, func() error { rt.Close(); return nil })
	if url, err = re.serve(tr.handler("fleet", rt)); err != nil {
		return nil, err
	}
	re.connect(url)

	tr.on.Store(true)
	reps := (replayRequests + len(e.inputs) - 1) / len(e.inputs)
	for r := 0; r < reps; r++ {
		for i := range e.inputs {
			id := fmt.Sprintf("replay-%d-%d", r, i)
			req := e.reqs[i]
			req.TraceID = id
			t0 := time.Now()
			resp, err := re.c.Compile(ctx, req)
			tr.add(span{Trace: id, Name: "client", Start: tr.at(t0), End: tr.at(time.Now()), fps: e.fpOne[i]})
			e.check(shot{idx: []int{i}}, []*wire.CompileResponse{resp}, err)
		}
	}
	tr.on.Store(false)
	if err := re.close(); err != nil {
		return nil, err
	}
	return tr.taken(), nil
}

// replayItem is one distinct input of a workload, its reference response
// and its share of the workload's compiles.
type replayItem struct {
	in     input
	ref    *wire.CompileResponse
	weight float64
}

func (e *env) replayItems() []replayItem {
	hot := 1.0
	if e.w.freshEvery > 0 && len(e.freshSeen) > 0 {
		hot = 1 - 1/float64(e.w.freshEvery)
	}
	items := make([]replayItem, 0, len(e.inputs)+len(e.freshSeen))
	for i, in := range e.inputs {
		items = append(items, replayItem{in: in, ref: e.refs[i], weight: hot / float64(len(e.inputs))})
	}
	for _, f := range e.freshSeen {
		f.weight = (1 - hot) / float64(len(e.freshSeen))
		items = append(items, f)
	}
	return items
}

// Repetitions per input: the median of fastReps (or, for the compiler
// stages, slowReps) timings is the input's cost.
const (
	fastReps = 15
	slowReps = 3
)

// fnReplay times each layer's public functions on the workload's distinct
// inputs, doing what the daemon does with them, and reports each as the
// mean cost per request of the workload's mix. wire.* are per HTTP
// request (per envelope on warm-batch); the graph layers are per compile.
func fnReplay(e *env) ([]metric, error) {
	items := e.replayItems()
	binary := e.w.codec == wire.Binary
	decode := func(in input) (*dfg.Graph, error) {
		var g dfg.Graph
		var err error
		if binary {
			err = g.UnmarshalBinary(in.graph.AppendBinary(nil))
		} else {
			err = json.Unmarshal(in.json, &g)
		}
		if err != nil {
			return nil, err
		}
		return &g, g.Validate()
	}

	var decodeUS, encodeUS float64
	var err error
	if e.w.batch > 0 {
		decodeUS, encodeUS, err = e.replayEnvelope()
	} else {
		decodeUS, encodeUS, err = replayWire(e.w.codec, items)
	}
	if err != nil {
		return nil, err
	}

	acfg := antichain.Config{MaxSize: paperSelect.C, MaxSpan: paperSelect.MaxSpan}
	var dfgUS, fpUS, hitUS, censusUS, selectUS, schedUS, antichains, cycles, censusNS float64
	for _, it := range items {
		w := it.weight
		d, err := timed(fastReps, func() error { _, err := decode(it.in); return err })
		if err != nil {
			return nil, err
		}
		dfgUS += w * us(d)

		var g *dfg.Graph
		d, err = timedPrep(fastReps, func() (err error) { g, err = decode(it.in); return err },
			func() error { g.Fingerprint(); return nil })
		if err != nil {
			return nil, err
		}
		fpUS += w * us(d)

		comp := pipeline.NewCompiler(pipeline.Options{Cache: pipeline.NewShardedCache(0, 0)})
		spec := pipeline.NewSpec(it.in.graph, pipeline.WithSelect(paperSelect))
		if _, err := comp.Compile(context.Background(), spec); err != nil {
			return nil, err
		}
		d, err = timed(fastReps, func() error { _, err := comp.Compile(context.Background(), spec); return err })
		if err != nil {
			return nil, err
		}
		hitUS += w * us(d)

		var census *antichain.Result
		d, err = timedPrep(slowReps, func() (err error) { g, err = decode(it.in); return err },
			func() (err error) {
				if g.N() >= pipeline.DefaultParallelEnumNodes {
					census, err = antichain.EnumerateParallel(g, acfg, 0)
				} else {
					census, err = antichain.Enumerate(g, acfg)
				}
				return err
			})
		if err != nil {
			return nil, err
		}
		censusUS += w * us(d)
		censusNS += w * float64(d)
		antichains += w * float64(census.Total())

		var selection *patsel.Selection
		d, err = timed(slowReps, func() (err error) { selection, err = patsel.SelectFrom(g, census, paperSelect); return err })
		if err != nil {
			return nil, err
		}
		selectUS += w * us(d)

		var s *sched.Schedule
		d, err = timed(slowReps, func() (err error) {
			if s, err = sched.MultiPattern(g, selection.Patterns, sched.Options{}); err != nil {
				return err
			}
			return s.Verify()
		})
		if err != nil {
			return nil, err
		}
		schedUS += w * us(d)
		cycles += w * float64(s.Length())
	}

	note := fmt.Sprintf("replay, mean per compile over %d distinct graphs", len(items))
	wireNote := "replay, mean per request"
	if e.w.batch > 0 {
		wireNote = fmt.Sprintf("replay, per envelope of %d", e.w.batch)
	}
	return []metric{
		newMetric("wire.decode_us", decodeUS, wireNote),
		newMetric("wire.encode_us", encodeUS, wireNote),
		newMetric("dfg.decode_us", dfgUS, note),
		newMetric("dfg.fingerprint_us", fpUS, note),
		newMetric("pipeline.hit_us", hitUS, note),
		newMetric("antichain.census_us", censusUS, note),
		newMetric("antichain.antichains", antichains, note),
		newMetric("antichain.ns_per_antichain", ratio(censusNS, antichains), "replay, census time over antichains"),
		newMetric("patsel.select_us", selectUS, note),
		newMetric("sched.schedule_us", schedUS, note+", with Verify"),
		newMetric("sched.cycles", cycles, note),
	}, nil
}

// replayWire times decoding each input's request body and encoding its
// response in the workload's codec.
func replayWire(codec wire.Codec, items []replayItem) (decodeUS, encodeUS float64, err error) {
	var body, out bytes.Buffer
	for _, it := range items {
		req := request(codec, it.in)
		body.Reset()
		if err := codec.EncodeRequest(&body, &req); err != nil {
			return 0, 0, err
		}
		d, err := timed(fastReps, func() error {
			var got wire.CompileRequest
			return codec.DecodeRequest(bytes.NewReader(body.Bytes()), &got)
		})
		if err != nil {
			return 0, 0, err
		}
		decodeUS += it.weight * us(d)
		d, err = timed(fastReps, func() error { out.Reset(); return codec.EncodeResponse(&out, it.ref) })
		if err != nil {
			return 0, 0, err
		}
		encodeUS += it.weight * us(d)
	}
	return decodeUS, encodeUS, nil
}

// replayEnvelope times decoding an envelope of the workload's batch size,
// every input in turn, and streaming its result items back.
func (e *env) replayEnvelope() (decodeUS, encodeUS float64, err error) {
	codec := e.w.codec
	jobs := make([]wire.CompileRequest, e.w.batch)
	items := make([]wire.BatchItem, e.w.batch)
	for j := range jobs {
		i := j % len(e.inputs)
		jobs[j] = e.reqs[i]
		items[j] = wire.BatchItem{Index: j, Status: http.StatusOK, Result: e.refs[i]}
	}
	var body, out bytes.Buffer
	if err := codec.EncodeBatch(&body, &wire.BatchRequest{Jobs: jobs}); err != nil {
		return 0, 0, err
	}
	d, err := timed(fastReps, func() error {
		var got wire.BatchRequest
		return codec.DecodeBatch(bytes.NewReader(body.Bytes()), &got)
	})
	if err != nil {
		return 0, 0, err
	}
	decodeUS = us(d)
	d, err = timed(fastReps, func() error {
		out.Reset()
		iw := codec.NewItemWriter(&out)
		for j := range items {
			if err := iw.WriteItem(&items[j]); err != nil {
				return err
			}
		}
		return nil
	})
	return decodeUS, us(d), err
}

// timed returns the median wall time of reps calls of f.
func timed(reps int, f func() error) (time.Duration, error) {
	return timedPrep(reps, nil, f)
}

// timedPrep is timed with an untimed prep before every call.
func timedPrep(reps int, prep, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return medianDuration(ds), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
