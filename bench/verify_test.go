package main

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mpsched/internal/dfg"
	"mpsched/internal/pattern"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// compile3DFT returns the 3DFT and a daemon's real response for it.
func compile3DFT(t *testing.T) (*dfg.Graph, *wire.CompileResponse) {
	t.Helper()
	s := server.New(server.Options{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	in, err := newInput("3dft")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.New(srv.URL).Compile(context.Background(), wire.CompileRequest{DFG: in.json})
	if err != nil {
		t.Fatal(err)
	}
	return in.graph, resp
}

func TestVerifySchedule(t *testing.T) {
	g, real := compile3DFT(t)
	if _, err := verifySchedule(g, real, 7); err != nil {
		t.Fatalf("real 3dft response rejected: %v", err)
	}

	clone := func() *wire.CompileResponse {
		r := *real
		r.CycleOf = slices.Clone(real.CycleOf)
		r.PatternOf = slices.Clone(real.PatternOf)
		r.SchedulerPatterns = slices.Clone(real.SchedulerPatterns)
		return &r
	}
	tampered := map[string]*wire.CompileResponse{}

	// A violated edge: a node moved into its predecessor's cycle.
	r := clone()
	for v := 0; v < g.N(); v++ {
		if preds := g.Preds(v); len(preds) > 0 {
			r.CycleOf[v] = r.CycleOf[preds[0]]
			break
		}
	}
	tampered["violated edge"] = r

	// An over-capacity cycle: its pattern loses one slot the cycle fills.
	r = clone()
	func() {
		for c, p := range r.PatternOf {
			demand := map[dfg.Color]int{}
			for v, cv := range r.CycleOf {
				if cv == c {
					demand[g.ColorOf(v)]++
				}
			}
			pat := pattern.MustParse(r.SchedulerPatterns[p])
			for color, need := range demand {
				if need == pat.Count(color) {
					r.SchedulerPatterns[p] = strings.Replace(r.SchedulerPatterns[p], string(color), "", 1)
					return
				}
			}
		}
		t.Fatal("no cycle fills a pattern slot")
	}()
	tampered["over-capacity cycle"] = r

	// A dropped node.
	r = clone()
	r.CycleOf = r.CycleOf[:len(r.CycleOf)-1]
	tampered["dropped node"] = r

	for name, r := range tampered {
		if _, err := verifySchedule(g, r, 7); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if sameSchedule(real, r) {
			t.Errorf("%s: counted as a repeat of the real response", name)
		}
	}
	if !sameSchedule(real, clone()) {
		t.Error("an identical response is not a repeat")
	}
}
