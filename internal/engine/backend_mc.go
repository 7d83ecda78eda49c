package engine

import (
	"fmt"

	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/obs"
	"semsim/internal/obs/quality"
	"semsim/internal/rank"
	"semsim/internal/walk"
)

func init() {
	Register("mc", newMCBackend)
}

// mcBackend wraps the pruned importance-sampling estimator of
// Algorithm 1 (Section 4) — the default, approximate, scale-oriented
// backend. Top-k queries route through one of three strategies; with a
// Planner attached the choice is adaptive, otherwise it reproduces the
// historical caller-chosen default (collision-driven when a meet index
// exists, brute scan otherwise) bit for bit.
type mcBackend struct {
	g       *hin.Graph
	est     *mc.Estimator
	walks   *walk.Index
	meet    *walk.MeetIndex
	planner *Planner
}

func newMCBackend(cfg Config) (Backend, error) {
	est := cfg.Estimator
	walks := cfg.Walks
	if est == nil {
		if walks == nil {
			return nil, fmt.Errorf("engine: mc backend requires Config.Estimator or Config.Walks")
		}
		var err error
		est, err = mc.New(walks, cfg.Sem, mc.Options{
			C: cfg.C, Theta: cfg.Theta, Cache: cfg.Cache,
			Workers: cfg.Workers, Metrics: cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
	}
	return &mcBackend{
		g:       cfg.Graph,
		est:     est,
		walks:   walks,
		meet:    cfg.Meet,
		planner: cfg.Planner,
	}, nil
}

func (b *mcBackend) Name() string { return "mc" }

func (b *mcBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: b.meet != nil, Exact: false}
}

func (b *mcBackend) Query(u, v hin.NodeID, co *obs.Cost) (float64, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return 0, err
	}
	return b.est.Query(u, v, co), nil
}

// TopK routes through the planner's strategy choice when one is
// attached, otherwise through defaultStrategy.
func (b *mcBackend) TopK(u hin.NodeID, k int, co *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	s := b.defaultStrategy()
	if b.planner != nil {
		s = b.planner.TopKStrategy(k)
	}
	return b.topK(u, k, s, co), nil
}

// defaultStrategy reproduces the pre-engine Index.TopK routing exactly:
// the meet-index path when one was built, the brute scan otherwise.
func (b *mcBackend) defaultStrategy() Strategy {
	if b.meet != nil {
		return StrategyCollision
	}
	return StrategyBrute
}

// topK executes one top-k strategy, charging its work to co. Every
// strategy returns the identical result (see TestStrategyIdentity).
func (b *mcBackend) topK(u hin.NodeID, k int, s Strategy, co *obs.Cost) []rank.Scored {
	switch {
	case s == StrategyCollision && b.meet != nil:
		return b.est.TopKWithIndex(u, k, b.meet, co)
	case s == StrategySemBounded:
		return b.est.TopKSemBounded(u, k, co)
	default:
		// The brute scan answers everything, including a collision
		// choice on an index built without a meet index.
		return b.est.TopK(u, k, co)
	}
}

func (b *mcBackend) SingleSource(u hin.NodeID, co *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	if b.meet == nil {
		return nil, ErrNoSingleSource
	}
	return b.est.SingleSource(u, b.meet, co), nil
}

func (b *mcBackend) QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error) {
	if err := CheckPairs(b.g, pairs); err != nil {
		return nil, err
	}
	return b.est.QueryBatch(pairs, workers), nil
}

// Explain runs the estimator's query loop with its evidence
// accumulator attached; Explanation.Score is bit-identical to Query.
func (b *mcBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return nil, err
	}
	return b.est.Explain(u, v), nil
}

// MemoryBytes reports the walk index plus the attached SLING cache and
// meet index — the full substrate the estimator queries against.
func (b *mcBackend) MemoryBytes() int64 {
	var m int64
	if b.walks != nil {
		m += b.walks.MemoryBytes()
	}
	if c := b.est.Cache(); c != nil {
		m += c.MemoryBytes()
	}
	if b.meet != nil {
		m += b.meet.MemoryBytes()
	}
	return m
}
