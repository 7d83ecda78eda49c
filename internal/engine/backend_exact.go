package engine

import (
	"fmt"

	"semsim/internal/core"
)

func init() {
	Register("exact", newExactBackend)
}

// DefaultMaxExactNodes caps the graph size the exact backend accepts by
// default: its all-pairs matrix is O(n^2) floats and each fixpoint sweep
// is O(n^2 d^2), so it is a ground-truth backend for small graphs, not a
// serving path.
const DefaultMaxExactNodes = 4096

// exactBackend answers queries from the converged iterative fixpoint of
// Section 2.3 (Equation 3), computed once at construction. Scores are
// exact for every pair; queries are O(1) matrix reads and top-k is one
// row scan.
type exactBackend struct {
	scoreTable
}

func newExactBackend(cfg Config) (Backend, error) {
	limit := cfg.MaxExactNodes
	if limit == 0 {
		limit = DefaultMaxExactNodes
	}
	if n := cfg.Graph.NumNodes(); n > limit {
		return nil, fmt.Errorf("engine: exact backend caps at %d nodes, graph has %d (use the mc or reduced backend)", limit, n)
	}
	iters, tol := cfg.fillSolve()
	res, err := core.Iterative(cfg.Graph, cfg.Sem, core.IterOptions{
		C: cfg.C, MaxIterations: iters, Tol: tol, Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	return &exactBackend{
		scoreTable{name: "exact", g: cfg.Graph, sem: cfg.Sem, at: res.Scores.At},
	}, nil
}

func (b *exactBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: true, Exact: true}
}

func (b *exactBackend) MemoryBytes() int64 {
	n := int64(b.g.NumNodes())
	return n * n * 8
}
