package engine

import (
	"fmt"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/walk"
)

// Strategy identifies one top-k execution plan over the Monte-Carlo
// estimator. All strategies return the identical result set (the
// equivalence suite asserts bit-identical output); they differ only in
// which candidates they touch and in what order.
type Strategy uint8

const (
	// StrategyBrute probes every node against u — O(n * n_w * t) meet
	// scans, parallelized across the scoring pool. Wins on small dense
	// graphs where candidate enumeration overhead dominates.
	StrategyBrute Strategy = iota
	// StrategySemBounded scans candidates in descending semantic order
	// and stops once Prop 2.5 (sim <= sem) proves no later candidate
	// can enter the heap. Wins when the semantic measure separates the
	// graph well; inherently sequential.
	StrategySemBounded
	// StrategyCollision scores only candidates whose walks actually
	// meet u's, enumerated from the inverted meet index. Wins when
	// meetings are sparse (large graphs, short walks).
	StrategyCollision
	// StrategyLinear reads the linear backend's converged linearized
	// solve: every query shape is a row scan over the solved matrix.
	// Available only when the serving backend holds such a solve
	// (Stats.LinearSolved); it then dominates every sampling strategy
	// on cost.
	StrategyLinear

	numStrategies
)

// String returns the label used in the semsim_plan_total counter series.
func (s Strategy) String() string {
	switch s {
	case StrategyBrute:
		return "brute"
	case StrategySemBounded:
		return "sem-bounded"
	case StrategyCollision:
		return "collision"
	case StrategyLinear:
		return "linear"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Stats are the recorded graph/walk statistics the planner decides
// from. They are collected once at index-build time (CollectStats) —
// the planner adds no per-query measurement cost.
type Stats struct {
	// Nodes is n, the graph's node count.
	Nodes int
	// AvgInDegree is the average in-degree d of the paper's cost
	// model (queries cost O(n_w * t * d^2) without the SLING cache).
	AvgInDegree float64
	// NumWalks and WalkLength are n_w and t of the walk index.
	NumWalks int
	// WalkLength is t, the walk truncation point.
	WalkLength int
	// HasMeet reports whether the inverted meet index was built.
	HasMeet bool
	// MeetEntries is the total number of inverted-index slots — the
	// sum over all walks of their non-terminated positions. The average
	// cell load MeetEntries/(n*(t+1)) estimates how many foreign walks
	// co-locate with each step of a query's walk.
	MeetEntries int64
	// DenseSemKernel reports that semantic evaluations go through a
	// dense precomputed kernel (one array read each), which moves the
	// break-even point of the sem-bounded scan: its n upfront semantic
	// probes become nearly free, leaving only the sort overhead.
	DenseSemKernel bool
	// LinearSolved reports that the serving backend holds a converged
	// linearized solve (backend "linear"): queries are matrix reads,
	// so the planner routes to StrategyLinear whenever the graph fits
	// DefaultMaxLinearNodes. The linear backend refuses larger graphs,
	// so the node check only matters for hand-built Stats.
	LinearSolved bool
}

// CollectStats records the planner inputs for one built index. meet may
// be nil (the collision strategy is then never chosen).
func CollectStats(g *hin.Graph, walks *walk.Index, meet *walk.MeetIndex) Stats {
	st := Stats{
		Nodes:       g.NumNodes(),
		AvgInDegree: g.AvgInDegree(),
	}
	if walks != nil {
		st.NumWalks = walks.NumWalks()
		st.WalkLength = walks.Length()
	}
	if meet != nil {
		st.HasMeet = true
		st.MeetEntries = meet.Entries()
	}
	return st
}

// semBoundedMinNodes is the candidate-count floor below which the
// sem-bounded scan's sort overhead (O(n log n) on top of n semantic
// evaluations) outweighs what early termination can save; smaller
// graphs brute-scan in parallel instead. With a dense semantic kernel
// the n upfront probes are single array reads, so the floor drops to
// semBoundedMinNodesDense.
const (
	semBoundedMinNodes      = 128
	semBoundedMinNodesDense = 32
)

// Planner picks a top-k execution strategy per query from the recorded
// statistics and counts every decision into the observability registry
// as semsim_plan_total{strategy="..."} — the counters surface through
// Index.Snapshot() and /metrics. A Planner is immutable after
// construction and safe for concurrent use (the counters are atomic).
type Planner struct {
	stats Stats
	plans [numStrategies]*obs.Counter
}

// NewPlanner builds a planner over recorded statistics, registering the
// per-strategy decision counters into reg (nil reg disables counting at
// zero cost; decisions still happen).
func NewPlanner(stats Stats, reg *obs.Registry) *Planner {
	p := &Planner{stats: stats}
	for s := Strategy(0); s < numStrategies; s++ {
		p.plans[s] = reg.Counter(
			obs.SeriesName("semsim_plan_total", "strategy", s.String()),
			"top-k queries routed to each execution strategy by the adaptive planner")
	}
	return p
}

// Stats returns the statistics the planner decides from.
func (p *Planner) Stats() Stats { return p.stats }

// Peek returns the strategy the planner would pick, without recording a
// decision — introspection for explain traces and wide-event logs. The
// choice is deterministic, so Peek always matches the next TopKStrategy.
func (p *Planner) Peek() Strategy { return p.pick() }

// TopKStrategy picks the strategy for one top-k query and records the
// decision. The choice is a deterministic function of the build-time
// statistics, so repeated queries plan identically.
func (p *Planner) TopKStrategy(k int) Strategy {
	s := p.pick()
	p.plans[s].Inc()
	return s
}

// SingleSourceStrategy picks the strategy for one single-source
// enumeration and records the decision. Single-source has no
// sem-bounded variant (it must return every nonzero candidate, so
// early termination cannot apply); the choice is between the solved
// linear row scan, the collision enumeration and the brute scan.
func (p *Planner) SingleSourceStrategy() Strategy {
	s := p.pickSingleSource()
	p.plans[s].Inc()
	return s
}

func (p *Planner) pickSingleSource() Strategy {
	st := p.stats
	if st.LinearSolved && st.Nodes <= DefaultMaxLinearNodes {
		return StrategyLinear
	}
	if st.HasMeet {
		return StrategyCollision
	}
	return StrategyBrute
}

// pick applies the cost model. A converged linearized solve beats
// every sampling strategy — one row of O(1) reads — so it is checked
// first, guarded by the solve's node budget. The two scan families are
// then compared by their dominant term:
//
//   - brute probes all n candidates, each a Meet scan over n_w coupled
//     walks: ~n * n_w walk comparisons;
//   - collision touches only co-location events: a query's walks occupy
//     ~n_w * t cells of the inverted index, and the average cell holds
//     MeetEntries / (n * (t+1)) foreign slots, so the expected event
//     count is n_w * t * load — independent of n on uniform graphs,
//     which is exactly why it wins at scale;
//   - sem-bounded replaces the walk scans with n cheap semantic
//     evaluations plus a sort, profitable once n clears the sort
//     overhead floor.
func (p *Planner) pick() Strategy {
	st := p.stats
	if st.LinearSolved && st.Nodes <= DefaultMaxLinearNodes {
		return StrategyLinear
	}
	if st.HasMeet && st.Nodes > 0 {
		cells := float64(st.Nodes) * float64(st.WalkLength+1)
		load := float64(st.MeetEntries) / cells
		events := float64(st.NumWalks) * float64(st.WalkLength) * load
		brute := float64(st.Nodes) * float64(st.NumWalks)
		// The 2x margin hedges the uniform-load assumption: hub nodes
		// concentrate walk visits, so real event counts run above the
		// average-load estimate.
		if events*2 < brute {
			return StrategyCollision
		}
	}
	floor := semBoundedMinNodes
	if st.DenseSemKernel {
		floor = semBoundedMinNodesDense
	}
	if st.Nodes >= floor {
		return StrategySemBounded
	}
	return StrategyBrute
}
