package graph

// Levels carries the classic scheduling level attributes of a DAG, computed
// exactly as the paper defines them (Eqs. 1–3):
//
//	ASAP(n)  = 0 if n has no predecessors, else max over preds +1
//	ALAP(n)  = ASAPmax if n has no successors, else min over succs −1
//	Height(n)= 1 if n has no successors, else max over succs +1
type Levels struct {
	ASAP    []int
	ALAP    []int
	Height  []int
	ASAPMax int
}

// ComputeLevels computes ASAP, ALAP and Height for a DAG.
func ComputeLevels(g *Digraph) (*Levels, error) {
	order, err := TopoSort(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	lv := &Levels{
		ASAP:   make([]int, n),
		ALAP:   make([]int, n),
		Height: make([]int, n),
	}
	for _, u := range order {
		asap := 0
		for _, p := range g.Preds(u) {
			if lv.ASAP[p]+1 > asap {
				asap = lv.ASAP[p] + 1
			}
		}
		lv.ASAP[u] = asap
		if asap > lv.ASAPMax {
			lv.ASAPMax = asap
		}
	}
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		if g.OutDegree(u) == 0 {
			lv.ALAP[u] = lv.ASAPMax
			lv.Height[u] = 1
			continue
		}
		alap := int(^uint(0) >> 1) // max int
		height := 0
		for _, s := range g.Succs(u) {
			if lv.ALAP[s]-1 < alap {
				alap = lv.ALAP[s] - 1
			}
			if lv.Height[s]+1 > height {
				height = lv.Height[s] + 1
			}
		}
		lv.ALAP[u] = alap
		lv.Height[u] = height
	}
	return lv, nil
}

// Mobility returns ALAP(n) − ASAP(n), the scheduling slack of node n.
func (lv *Levels) Mobility(n int) int { return lv.ALAP[n] - lv.ASAP[n] }

// CriticalPathLength returns the number of clock cycles of the longest
// dependency chain, i.e. ASAPmax + 1.
func (lv *Levels) CriticalPathLength() int { return lv.ASAPMax + 1 }

// Span computes the paper's span of a node set A:
//
//	Span(A) = U(max ASAP(n) − min ALAP(n))  with U(x) = max(x, 0).
//
// An empty set has span 0.
func (lv *Levels) Span(nodes []int) int {
	if len(nodes) == 0 {
		return 0
	}
	maxASAP := lv.ASAP[nodes[0]]
	minALAP := lv.ALAP[nodes[0]]
	for _, n := range nodes[1:] {
		if lv.ASAP[n] > maxASAP {
			maxASAP = lv.ASAP[n]
		}
		if lv.ALAP[n] < minALAP {
			minALAP = lv.ALAP[n]
		}
	}
	if d := maxASAP - minALAP; d > 0 {
		return d
	}
	return 0
}
