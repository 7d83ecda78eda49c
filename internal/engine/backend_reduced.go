package engine

import (
	"semsim/internal/hin"
	"semsim/internal/obs/quality"
	"semsim/internal/pairgraph"
)

func init() {
	Register("reduced", newReducedBackend)
}

// DefaultReduceTheta is the retention threshold the reduced backend
// falls back to when Config.Theta is 0: a G^2_theta reduction needs a
// strictly positive threshold to exist (Definition 3.4), and 0.05 is
// the paper's default pruning setting.
const DefaultReduceTheta = 0.05

// reduceBuildBudget is the per-retained-source bypass-folding budget
// (pairgraph.ReduceOptions.MaxExpansions) the backend builds with: 2e4
// SARW transitions per source. Tighter than the library default because
// an engine backend must come up in interactive time even on graphs
// where theta retains a large pair set.
const reduceBuildBudget = 2e4

// The fixpoint budget of the reduced solve: at most reduceMaxIterations
// sweeps, stopping early once the largest change drops below reduceTol.
const (
	reduceMaxIterations = 100
	reduceTol           = 1e-10
)

// reducedBackend answers queries from the materialized G^2_theta of
// Section 3, solved to its fixpoint at construction: scores of retained
// pairs (sem > theta) are exact full-G^2 SemSim values (Theorem 3.5);
// dropped pairs score 0. Build cost is O(retained pairs * d^2), so the
// backend suits mid-sized graphs whose semantic measure separates pairs
// well; queries are O(1) map lookups.
type reducedBackend struct {
	scoreTable
	theta float64
	red   *pairgraph.Reduced
}

func newReducedBackend(cfg Config) (Backend, error) {
	theta := cfg.Theta
	if theta == 0 {
		theta = DefaultReduceTheta
	}
	red, err := pairgraph.Reduce(cfg.Graph, cfg.Sem, pairgraph.ReduceOptions{
		C: cfg.C, Theta: theta,
		// Build-time guardrail: on graphs whose semantic measure
		// separates pairs poorly (many retained sources next to a dense
		// dropped region), unbounded bypass folding makes construction
		// take hours. A 2e4-transition budget per retained source keeps
		// builds interactive; the drain absorbs whatever the budget
		// leaves unexplored, so retained scores only ever err low
		// (Theorem 3.5's envelope still holds).
		MaxExpansions: reduceBuildBudget,
	})
	if err != nil {
		return nil, err
	}
	if err := red.Solve(reduceMaxIterations, reduceTol); err != nil {
		return nil, err
	}
	return &reducedBackend{
		scoreTable: scoreTable{name: "reduced", g: cfg.Graph, sem: cfg.Sem, at: red.Score},
		theta:      theta,
		red:        red,
	}, nil
}

func (b *reducedBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: true, Exact: true, Prunes: b.theta > 0}
}

// Explain reports the solved G^2_theta score. Retained pairs are exact
// (Theorem 3.5); dropped pairs score 0 with a one-sided error bounded by
// the retention threshold, surfaced as the pruning envelope.
func (b *reducedBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	ex, err := b.scoreTable.Explain(u, v)
	if err != nil {
		return nil, err
	}
	ex.Theta = b.theta
	if ex.Score == 0 && u != v {
		// A zero from the reduced backend cannot distinguish "truly
		// dissimilar" from "dropped by the reduction"; either way the
		// true score is at most min(sem, theta).
		ex.SemSkipped = ex.Sem <= b.theta
		ex.PruneEnvelope = min(ex.Sem, b.theta)
	}
	return ex, nil
}

func (b *reducedBackend) MemoryBytes() int64 { return b.red.MemoryBytes() }
