package engine

import (
	"fmt"
	"math"

	"semsim/internal/hin"
	"semsim/internal/obs/quality"
	"semsim/internal/simmat"
)

func init() {
	Register("linear", newLinearBackend)
}

// DefaultMaxLinearNodes caps the graph size the linear backend
// accepts. It stores an O(n^2) score matrix and each Gauss-Seidel sweep
// is O(n^2 d^2); the cap marks where the solve stops fitting an
// interactive build budget.
const DefaultMaxLinearNodes = 4096

// DefaultLinearSweeps bounds the Gauss-Seidel sweeps. With c = 0.6 the
// residual contracts by roughly c per sweep, so the residual target is
// reached in well under half this budget on admissible inputs.
const DefaultLinearSweeps = 100

// DefaultLinearResidual is the residual stop criterion: the sweep loop
// ends once no score (and no diagonal-correction entry) moved by more
// than this amount.
const DefaultLinearResidual = 1e-9

// linearBackend answers queries from a linearized SemSim solve in the
// style of Maehara et al. ("Efficient SimRank Computation via
// Linearization", VLDB 2014): SemSim's recursion is read as the linear
// system
//
//	S = K .* (W^T S W) + diag(D)
//
// where K is the pairwise coefficient kappa(u,v) = sem(u,v)*c/N(u,v)
// (the linearization of Equation 1's semantic folding — the same
// factor the reduced backend folds into its pair-graph edges) and D is
// the diagonal correction matrix that makes the pinned unit diagonal
// consistent with the unconstrained system. Construction estimates D
// and solves for S simultaneously with in-place Gauss-Seidel sweeps
// under a residual-based stop criterion; queries are then O(1) matrix
// reads, top-k and single-source one row scan each.
//
// Where the reference oracle core.Iterative runs two-matrix Jacobi
// sweeps with an averaged-delta convergence test, this solver updates
// in place — each pair immediately sees its neighbors' freshest values
// — and stops on the max residual. Both iterations are monotone from
// the identity start and bounded above by sem (Prop 2.5), so they
// converge to the same minimal fixpoint; the conformance harness
// asserts the two agree within 1e-6 on every graph it generates.
type linearBackend struct {
	scoreTable
	diag     []float64 // D, the estimated diagonal correction
	sweeps   int       // Gauss-Seidel sweeps actually run
	residual float64   // max |delta| of the final sweep
}

func newLinearBackend(cfg Config) (Backend, error) {
	n := cfg.Graph.NumNodes()
	if n > DefaultMaxLinearNodes {
		return nil, fmt.Errorf("engine: linear backend caps at %d nodes, graph has %d (use the mc or reduced backend)", DefaultMaxLinearNodes, n)
	}
	g, sem := cfg.Graph, cfg.Sem

	// The coefficient matrix of the linearized system:
	// kappa[u*n+v] = sem(u,v)*c/N(u,v), with kappa = 0 marking pairs
	// outside the recursion (an empty in-neighborhood on either side).
	// N(u,v) is iteration-independent, so like core.Iterative we pay
	// its O(n^2 d^2) once up front; the sweeps then read one
	// coefficient per pair instead of re-evaluating the measure.
	kappa := make([]float64, n*n)
	for u := 0; u < n; u++ {
		iu := g.InNeighbors(hin.NodeID(u))
		if len(iu) == 0 {
			continue
		}
		wu := g.InWeights(hin.NodeID(u))
		for v := u; v < n; v++ {
			iv := g.InNeighbors(hin.NodeID(v))
			if len(iv) == 0 {
				continue
			}
			wv := g.InWeights(hin.NodeID(v))
			var norm float64
			for i, a := range iu {
				for j, b := range iv {
					norm += wu[i] * wv[j] * sem.Sim(a, b)
				}
			}
			if norm == 0 {
				continue
			}
			semUV := 1.0
			if u != v {
				semUV = sem.Sim(hin.NodeID(u), hin.NodeID(v))
			}
			k := semUV * cfg.C / norm
			kappa[u*n+v] = k
			kappa[v*n+u] = k
		}
	}

	S := simmat.New(n) // identity start, the R_0 of the iterative forms
	D := make([]float64, n)
	for u := 0; u < n; u++ {
		// Nodes whose diagonal receives no recursive mass (no
		// in-neighbors, or zero normalization) are pure source terms:
		// S(u,u) = D(u) = 1.
		if kappa[u*n+u] == 0 {
			D[u] = 1
		}
	}

	var sweeps int
	residual := math.Inf(1)
	for sweeps < DefaultLinearSweeps && residual > DefaultLinearResidual {
		sweeps++
		residual = linearSweep(g, kappa, S, D)
	}
	return &linearBackend{
		// The planner records linear routing for every row scan.
		scoreTable: scoreTable{name: "linear", g: g, sem: sem, at: S.At, planner: cfg.Planner},
		diag:       D, sweeps: sweeps, residual: residual,
	}, nil
}

// linearSweep runs one in-place Gauss-Seidel pass over the linearized
// system, updating every off-diagonal score and every diagonal
// correction entry, and returns the pass's max absolute change (the
// residual the stop criterion watches). The diagonal of S stays pinned
// at 1 throughout; D absorbs the difference, exactly the role of the
// diagonal correction matrix in the linearization.
func linearSweep(g *hin.Graph, kappa []float64, S *simmat.Matrix, D []float64) float64 {
	n := S.N()
	var maxDelta float64
	for u := 0; u < n; u++ {
		iu := g.InNeighbors(hin.NodeID(u))
		if len(iu) == 0 {
			continue
		}
		wu := g.InWeights(hin.NodeID(u))
		for v := u + 1; v < n; v++ {
			k := kappa[u*n+v]
			if k == 0 {
				continue
			}
			iv := g.InNeighbors(hin.NodeID(v))
			wv := g.InWeights(hin.NodeID(v))
			var sum float64
			for i, a := range iu {
				row := S.Row(a)
				for j, b := range iv {
					sum += wu[i] * wv[j] * row[b]
				}
			}
			next := k * sum
			if d := math.Abs(next - S.At(hin.NodeID(u), hin.NodeID(v))); d > maxDelta {
				maxDelta = d
			}
			S.Set(hin.NodeID(u), hin.NodeID(v), next)
		}
		// The diagonal correction for u: the unconstrained row reads
		// S(u,u) = kappa(u,u) * sum + D(u), and the pinned S(u,u) = 1
		// determines D(u) uniquely. Its convergence is part of the
		// residual so the stop criterion covers the whole system.
		if ku := kappa[u*n+u]; ku != 0 {
			var sum float64
			for i, a := range iu {
				row := S.Row(a)
				for j, b := range iu {
					sum += wu[i] * wu[j] * row[b]
				}
			}
			next := 1 - ku*sum
			if d := math.Abs(next - D[u]); d > maxDelta {
				maxDelta = d
			}
			D[u] = next
		}
	}
	return maxDelta
}

// Caps reports the linear backend as exact: the solve runs to a 1e-9
// residual, so returned scores match the fixpoint far inside any
// tolerance a caller can observe (Sweeps/Residual expose the actual
// convergence achieved).
func (b *linearBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: true, Exact: true}
}

// Sweeps reports how many Gauss-Seidel sweeps the solve ran.
func (b *linearBackend) Sweeps() int { return b.sweeps }

// Residual reports the max absolute change of the final sweep — the
// convergence actually achieved against DefaultLinearResidual.
func (b *linearBackend) Residual() float64 { return b.residual }

// Diagonal returns a copy of the estimated diagonal correction matrix
// D (one entry per node) — the quantity the linearization solves for
// alongside the scores, exposed for tests and diagnostics.
func (b *linearBackend) Diagonal() []float64 {
	out := make([]float64, len(b.diag))
	copy(out, b.diag)
	return out
}

// Explain adds the solve's convergence evidence to the solved score:
// how many Gauss-Seidel sweeps ran and the residual they ended on.
func (b *linearBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	ex, err := b.scoreTable.Explain(u, v)
	if err != nil {
		return nil, err
	}
	ex.SolveSweeps = b.sweeps
	ex.SolveResidual = b.residual
	return ex, nil
}

func (b *linearBackend) MemoryBytes() int64 {
	n := int64(len(b.diag))
	return n*n*8 + n*8 // score matrix + diagonal correction
}
