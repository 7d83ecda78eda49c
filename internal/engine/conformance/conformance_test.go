package conformance

import (
	"strings"
	"testing"
	"time"

	"semsim/internal/engine"
	"semsim/internal/semantic"
)

// TestConformanceAllBackends drives the full differential suite against
// every backend in the registry. A new backend gets conformance
// coverage the moment it registers — this loop discovers it through
// engine.Names(), no test change needed.
func TestConformanceAllBackends(t *testing.T) {
	names := engine.Names()
	for _, want := range []string{"mc", "reduced", "linear"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry %v is missing backend %q", names, want)
		}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			RunConformance(t, name)
		})
	}
}

// TestLinearSolveConvergence pins the linear backend's solver evidence:
// the solve must report a residual at or below DefaultLinearResidual
// (i.e. it converged rather than exhausting sweeps), within the sweep
// budget, with one diagonal-correction entry per node.
func TestLinearSolveConvergence(t *testing.T) {
	g := RandomGraph(5, 16, 48)
	sem := RandomMeasure(105, 16, 0.1)
	cfg := buildConfig(t, g, sem, Options{NumWalks: 40, WalkLength: 8, C: 0.6, Theta: 0.05})

	b := mustNew(t, "linear", cfg)
	lin, ok := b.(interface {
		Sweeps() int
		Residual() float64
		Diagonal() []float64
	})
	if !ok {
		t.Fatal("linear backend does not expose solve evidence")
	}
	if lin.Residual() > engine.DefaultLinearResidual {
		t.Errorf("solve residual %v above default budget %v (did not converge)",
			lin.Residual(), engine.DefaultLinearResidual)
	}
	if s := lin.Sweeps(); s < 1 || s > engine.DefaultLinearSweeps {
		t.Errorf("solve ran %d sweeps, want within (0,%d]", s, engine.DefaultLinearSweeps)
	}
	if d := lin.Diagonal(); len(d) != g.NumNodes() {
		t.Errorf("diagonal correction has %d entries for %d nodes", len(d), g.NumNodes())
	}
}

// TestLinearNodeCap: the linear backend refuses graphs above its node
// budget instead of attempting an unaffordable O(n^2 d^2) solve. The
// cap is checked before any O(n^2) allocation, so a graph one node over
// it fails fast.
func TestLinearNodeCap(t *testing.T) {
	g := RandomGraph(9, engine.DefaultMaxLinearNodes+1, 0)
	start := time.Now()
	_, err := engine.New("linear", engine.Config{Graph: g, Sem: semantic.Uniform{}})
	if err == nil {
		t.Fatal("linear backend accepted a graph above DefaultMaxLinearNodes")
	}
	if !strings.Contains(err.Error(), "caps at") {
		t.Errorf("cap error does not name the cap: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusing an over-cap graph took %v", d)
	}
}
