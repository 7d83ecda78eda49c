package engine

import (
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/obs/quality"
	"semsim/internal/rank"
	"semsim/internal/semantic"
)

// scoreTable is the query surface shared by the backends that solve
// every score at construction (linear, reduced): each query
// shape is a read or a row scan of one per-pair lookup. A backend
// embeds it and adds its construction, Caps, MemoryBytes and any
// backend-specific Explain fields. Every lookup charges one Cost.Pairs.
type scoreTable struct {
	name string
	g    *hin.Graph
	sem  semantic.Measure
	at   func(u, v hin.NodeID) float64
	// planner, when set, records a routing decision per TopK and
	// SingleSource so semsim_plan_total shows the table's row scans.
	planner *Planner
}

func (t *scoreTable) Name() string { return t.name }

func (t *scoreTable) Query(u, v hin.NodeID, co *obs.Cost) (float64, error) {
	if err := CheckPair(t.g, u, v); err != nil {
		return 0, err
	}
	if co != nil {
		co.Pairs++
	}
	return t.at(u, v), nil
}

func (t *scoreTable) TopK(u hin.NodeID, k int, co *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(t.g, u); err != nil {
		return nil, err
	}
	if t.planner != nil {
		// Every strategy reads the same solved row.
		t.planner.TopKStrategy(k)
	}
	h := rank.NewTopK(k)
	t.scan(u, co, h.Push)
	return h.Sorted(), nil
}

func (t *scoreTable) SingleSource(u hin.NodeID, co *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(t.g, u); err != nil {
		return nil, err
	}
	if t.planner != nil {
		t.planner.SingleSourceStrategy()
	}
	out := make([]rank.Scored, 0)
	t.scan(u, co, func(s rank.Scored) { out = append(out, s) })
	return out, nil
}

// scan looks up sim(u,v) for every candidate v != u in ascending node
// order, charging one pair per candidate, and hands the nonzero scores
// to emit.
func (t *scoreTable) scan(u hin.NodeID, co *obs.Cost, emit func(rank.Scored)) {
	n := t.g.NumNodes()
	for v := 0; v < n; v++ {
		if hin.NodeID(v) == u {
			continue
		}
		if s := t.at(u, hin.NodeID(v)); s > 0 {
			emit(rank.Scored{Node: hin.NodeID(v), Score: s})
		}
	}
	if co != nil {
		co.Pairs += int64(n - 1)
	}
}

func (t *scoreTable) QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error) {
	if err := CheckPairs(t.g, pairs); err != nil {
		return nil, err
	}
	// Each score is an O(1) lookup; fanning out would cost more in
	// goroutine churn than it saves, so the workers hint is ignored.
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = t.at(p[0], p[1])
	}
	return out, nil
}

// Explain reports the solved score with a degenerate (zero-width)
// interval: solved values carry no sampling uncertainty. Backends with
// their own evidence wrap it and add their fields.
func (t *scoreTable) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	t0 := time.Now()
	ex := &quality.Explanation{
		U:            int(u),
		V:            int(v),
		Backend:      t.name,
		Exact:        true,
		CIConfidence: quality.Confidence,
		SOCacheMode:  "none",
	}
	s, err := t.Query(u, v, &ex.Cost)
	if err != nil {
		return nil, err
	}
	ex.Score, ex.Mean, ex.CILow, ex.CIHigh = s, s, s, s
	ex.Sem = 1 // sem(u,u) = 1 by definition, without a measure probe
	if u != v {
		ex.Sem = t.sem.Sim(u, v)
	}
	ex.ElapsedSeconds = time.Since(t0).Seconds()
	return ex, nil
}
