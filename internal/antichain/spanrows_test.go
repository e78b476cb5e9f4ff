package antichain

import (
	"fmt"
	"math/rand"
	"testing"

	"mpsched/internal/dfg"
	"mpsched/internal/graph"
)

// The walk rests on one identity: a node set is within the span limit
// exactly when each of its pairs is, so the span rows, built per pair, hold
// every bounded antichain as a clique. This test checks both halves of it
// on the catalog graphs and on random graphs at the candidate sets' word
// edges: each row against parallelizability and Levels.Span of the pair,
// and the span of every antichain against the spans of its pairs.
func TestSpanRowsArePairwise(t *testing.T) {
	graphs := equivalenceWorkloads(t)
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{63, 64, 65, 128, 129} {
		graphs[fmt.Sprintf("random%d", n)] = randomDFG(rng, n, 0.2)
	}
	for name, g := range graphs {
		lv, reach := g.Levels(), g.Reach()
		for span := -1; span <= 3; span++ {
			an, err := analyse(g, Config{MaxSize: 5, MaxSpan: span})
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < g.N(); u++ {
				row := an.row(u)
				for w := 0; w < g.N(); w++ {
					want := reach.Parallelizable(u, w) && (span < 0 || lv.Span([]int{u, w}) <= span)
					if got := row[w>>6]&(1<<uint(w&63)) != 0; got != want {
						t.Fatalf("%s span ≤ %d: node %d in row(%d) is %v, want %v", name, span, w, u, got, want)
					}
				}
			}
		}
		requireSpanIsPairwise(t, name, g, lv)
	}
}

// requireSpanIsPairwise checks, on every antichain of up to four members
// at unlimited span, that its span is within each limit 0…3 exactly when
// the span of each of its pairs is.
func requireSpanIsPairwise(t *testing.T, name string, g *dfg.Graph, lv *graph.Levels) {
	t.Helper()
	count := 0
	if err := ForEach(g, Config{MaxSize: 4, MaxSpan: -1}, func(nodes []int) bool {
		count++
		pairMax := 0
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				pairMax = max(pairMax, lv.Span([]int{nodes[i], nodes[j]}))
			}
		}
		for span := 0; span <= 3; span++ {
			if whole, pairs := lv.Span(nodes) <= span, pairMax <= span; whole != pairs {
				t.Fatalf("%s: antichain %v within span %d is %v, its pairs %v", name, nodes, span, whole, pairs)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatalf("%s: no antichain", name)
	}
}
