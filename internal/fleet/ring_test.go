package fleet

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"mpsched/internal/dfg"
	"mpsched/internal/wire"
)

// TestRingOwnerStability pins the property the whole design hangs on:
// removing a member moves only that member's keys — every key owned by
// a survivor keeps its owner, so backend caches stay hot across a
// topology change.
func TestRingOwnerStability(t *testing.T) {
	full := newRing([]int{0, 1, 2, 3}, 0)
	smaller := newRing([]int{0, 1, 3}, 0)

	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		h := fnv1a64(fmt.Sprintf("key-%d", i))
		before, ok := full.owner(h)
		if !ok {
			t.Fatal("full ring reported no owner")
		}
		after, ok := smaller.owner(h)
		if !ok {
			t.Fatal("smaller ring reported no owner")
		}
		if before == 2 {
			moved++
			if after == 2 {
				t.Fatalf("key %d still owned by removed member", i)
			}
			continue
		}
		kept++
		if after != before {
			t.Fatalf("key %d moved %d → %d though its owner survived", i, before, after)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
	// With 64 vnodes each, a 4-member ring should spread within a few
	// percent; the removed member owning a quarter-ish of the keys keeps
	// the test honest about the ring actually using all members.
	if moved < 2000/8 || moved > 2000/2 {
		t.Fatalf("member 2 owned %d/2000 keys, expected roughly a quarter", moved)
	}
}

// TestRingSequence pins the failover order: every member exactly once,
// owner first, and an empty ring yields nothing.
func TestRingSequence(t *testing.T) {
	r := newRing([]int{5, 1, 9}, 8)
	for i := 0; i < 200; i++ {
		h := fnv1a64(fmt.Sprintf("k%d", i))
		seq := r.sequence(h, nil)
		if len(seq) != 3 {
			t.Fatalf("sequence length = %d, want 3", len(seq))
		}
		owner, _ := r.owner(h)
		if seq[0] != owner {
			t.Fatalf("sequence starts at %d, owner is %d", seq[0], owner)
		}
		seen := map[int]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("member %d repeated in %v", m, seq)
			}
			seen[m] = true
		}
	}
	if seq := (&ring{}).sequence(42, nil); len(seq) != 0 {
		t.Fatalf("empty ring sequence = %v, want empty", seq)
	}
	if _, ok := (&ring{}).owner(42); ok {
		t.Fatal("empty ring reported an owner")
	}
}

// TestRouteKeyStable pins routing keys to the bytes earlier releases
// produced, so an upgraded router places every key on the backend that
// already holds its result. Each case exercises one field of the key.
func TestRouteKeyStable(t *testing.T) {
	for _, tc := range []struct {
		req  wire.CompileRequest
		want string
	}{
		{wire.CompileRequest{Workload: "fft:8"},
			"75a5c67415d47c2cff2b385500413eb9d9094b597110a2909e11b2161285634a||fft:8|||||"},
		{wire.CompileRequest{Graph: decodeGraph(t, `{"name":"pair","nodes":[{"name":"a","color":"a"},{"name":"b","color":"a"}],"edges":[[0,1]]}`)},
			"a13897678186aed6d69484b54f96f6b0931142c5afbaf6ece8c9c3b873e7089a|||||||"},
		{wire.CompileRequest{Workload: "3dft", Name: "my-3dft"},
			"9258cb20120ab8edd73315f204e42efbf31231b565040610f993e749c2e88b70|my-3dft|3dft|||||"},
		{wire.CompileRequest{Workload: "fir:8,4", Select: &wire.SelectConfig{C: 5, Pdef: 3, Span: -1, Epsilon: 0.25, Alpha: 12.5}},
			"a1b5571e870eb46a47cdd076fb769848ebe83f9becfddb2d3ef17e39f02c4fba||fir:8,4|5,3,-1,0.25,12.5||||"},
		{wire.CompileRequest{Workload: "ndft:4", Sched: &wire.SchedConfig{Priority: "F1", Tie: "random", Seed: 42, SwitchPenalty: 3}},
			"3dc53c01f515ea69a80ebb5658f87104a5e9d2cac4e3a56f56abb3d93c9dd9bf||ndft:4||F1,random,42,3|||"},
		{wire.CompileRequest{Workload: "3dft", Spans: []int{0, 1, 2}},
			"9258cb20120ab8edd73315f204e42efbf31231b565040610f993e749c2e88b70||3dft|||||0,1,2,"},
		{wire.CompileRequest{Workload: "matmul:3", StopAfter: "select"},
			"c313304c8ac07f4c12094fcea8e0bb093298206fa4f08e54b505c4adc7f9dbe7||matmul:3|||select||"},
		{wire.CompileRequest{Workload: "fir:8,4", Name: "all", Select: &wire.SelectConfig{Pdef: 2, Alpha: 20},
			Sched: &wire.SchedConfig{Tie: "asc"}, StopAfter: "schedule", Spans: []int{1, 2}},
			"a1b5571e870eb46a47cdd076fb769848ebe83f9becfddb2d3ef17e39f02c4fba|all|fir:8,4|0,2,0,0,20|,asc,0,0|schedule||1,2,"},
	} {
		req := tc.req
		got, err := (&Router{}).requestKey(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("routing key moved:\n got  %q\n want %q", got, tc.want)
		}
	}
}

// decodeGraph decodes an inline graph as a codec does.
func decodeGraph(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	var g dfg.Graph
	if err := json.Unmarshal([]byte(src), &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

// TestSpecCacheSharesGraphs: the router resolves a repeated workload
// spec to the same *dfg.Graph through its graph store, and spec churn
// stays within the store's 512 entries.
func TestSpecCacheSharesGraphs(t *testing.T) {
	rt, err := New(Options{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	resolve := func(workload string) *dfg.Graph {
		t.Helper()
		g, err := rt.graphs.Workload(workload)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if resolve("3dft") != resolve("3dft") {
		t.Fatal("a repeated workload spec generated a second graph")
	}
	for i := 0; i < 600; i++ {
		resolve(fmt.Sprintf("random:seed=%d,n=8", i))
	}
	if n := rt.graphs.Stats().Entries; n > 512 {
		t.Fatalf("%d specs resident after 600 distinct ones, bound 512", n)
	}
}
