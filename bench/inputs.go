package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mpsched/internal/antichain"
	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
)

// paperSelect is the selection configuration of a request that leaves
// select unset: the paper's C=5, span ≤ 1, Pdef=4.
var paperSelect = patsel.Config{Pdef: 4}.WithDefaults()

// input is one distinct graph a workload sends, with its wire forms. The
// daemon only ever sees the graph itself, never the spec it came from.
type input struct {
	name  string // generator spec, e.g. "fir:12,2"
	graph *dfg.Graph
	fp    string // fingerprint: the prefix of the graph's result-cache keys
	json  []byte // the graph in the dfg JSON wire format
	want  int    // exact cycle count the paper reports, 0 when it gives none
}

// random reports whether the input is a seeded random graph rather than
// one of the fixed kernels.
func (in input) random() bool { return strings.HasPrefix(in.name, "random:") }

func newInput(spec string) (input, error) {
	g, err := cliutil.Generate(spec)
	if err != nil {
		return input{}, err
	}
	data, err := json.Marshal(g)
	if err != nil {
		return input{}, err
	}
	in := input{name: spec, graph: g, fp: g.Fingerprint(), json: data}
	if spec == "3dft" {
		in.want = 7 // Table 2 of the paper, at the default Pdef=4
	}
	return in, nil
}

func newInputs(specs []string) ([]input, error) {
	ins := make([]input, len(specs))
	for i, s := range specs {
		var err error
		if ins[i], err = newInput(s); err != nil {
			return nil, fmt.Errorf("input %s: %w", s, err)
		}
	}
	return ins, nil
}

// hotKernels and a seeded random graph per rung of a fixed size ladder
// (n = 24..63) make the 32-graph hot set of the warm workloads. The fixed
// ladder keeps the bytes per request the same for every seed.
var hotKernels = []string{"3dft", "ndft:4", "fir:12,2", "butterfly:3", "wide:stages=4,lanes=8", "chain:depth=48,width=2"}

const hotRandom = 26

func hotSet(seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := append([]string(nil), hotKernels...)
	for i := 0; i < hotRandom; i++ {
		n := 24 + i*(63-24)/(hotRandom-1)
		specs = append(specs, fmt.Sprintf("random:seed=%d,n=%d", rng.Int63(), n))
	}
	return newInputs(specs)
}

// coldKernels are the DSP kernels of the cold corpus. With the three
// random graphs they make 15 inputs: an odd count puts the median request
// inside one graph's latency cluster instead of in the gap between two.
var coldKernels = []string{"3dft", "ndft:4", "ndft:5", "fft:8", "fir:8,4", "fir:12,2", "fir:16,2", "matmul:3",
	"butterfly:3", "butterfly:4", "wide:stages=4,lanes=8", "chain:depth=48,width=2"}

// coldTiers are the seeded random members of the cold corpus. The census
// of random graphs of one shape varies about threefold in size, which would
// make the workload's cost follow the seed. So each tier draws
// tierCandidates graphs, shortlists the tierShortlist whose count of
// antichains of up to three nodes (a cheap proxy) is nearest proxy, and
// keeps the one whose full census is nearest census: a seed changes which
// graphs run, not how much census work they bring.
var coldTiers = []struct {
	shape         string
	proxy, census int
}{
	{"n=64", 10000, 250000},
	{"n=96,colors=3", 35000, 2200000},
	{"n=128,colors=3,fanin=3", 36000, 1800000},
}

const (
	tierCandidates = 16
	tierShortlist  = 3
)

func coldCorpus(seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := append([]string(nil), coldKernels...)
	for _, t := range coldTiers {
		type cand struct {
			spec string
			g    *dfg.Graph
			gap  int
		}
		cands := make([]cand, tierCandidates)
		for i := range cands {
			spec := fmt.Sprintf("random:seed=%d,%s", rng.Int63(), t.shape)
			g, err := cliutil.Generate(spec)
			if err != nil {
				return nil, err
			}
			res, err := antichain.Enumerate(g, antichain.Config{MaxSize: 3, MaxSpan: paperSelect.MaxSpan})
			if err != nil {
				return nil, err
			}
			cands[i] = cand{spec, g, abs(res.Total() - t.proxy)}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].gap < cands[j].gap })
		best, bestGap := "", -1
		for _, c := range cands[:tierShortlist] {
			res, err := antichain.EnumerateParallel(c.g, antichain.Config{MaxSize: paperSelect.C, MaxSpan: paperSelect.MaxSpan}, 0)
			if err != nil {
				return nil, err
			}
			if gap := abs(res.Total() - t.census); bestGap < 0 || gap < bestGap {
				best, bestGap = c.spec, gap
			}
		}
		specs = append(specs, best)
	}
	return newInputs(specs)
}

// freshInput is the j-th never-seen graph of client k on mixed-fleet: a
// small random graph (n = 16..32) whose seed no other request shares.
func freshInput(seed int64, k, j int) input {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(k)<<40 ^ uint64(j)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	in, err := newInput(fmt.Sprintf("random:seed=%d,n=%d", int64(h>>2), 16+j%17))
	if err != nil {
		panic(err) // the spec is well formed by construction
	}
	return in
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
