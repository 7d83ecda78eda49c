package semsim

// Tests for the engine layer's public surface: IndexOptions.Backend /
// AutoPlan, the Backends() listing, bounds-validated entry points, and
// the acceptance invariant that planner-routed queries return results
// bit-identical to the caller-chosen paths.

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestFacadeBackendSelection(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	exact, err := Exact(g, lin, ExactOptions{C: 0.6, MaxIterations: 50})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}

	names := Backends()
	for _, want := range []string{"mc", "reduced", "linear"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Backends() = %v, missing %q", names, want)
		}
	}

	a, b := g.MustNode("a"), g.MustNode("b")
	base := IndexOptions{NumWalks: 200, WalkLength: 10, Theta: 0.05, Seed: 3}

	// The linear backend serves converged fixpoint scores through the
	// same Index facade.
	opts := base
	opts.Backend = "linear"
	idx, err := BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatalf("BuildIndex linear: %v", err)
	}
	if idx.Backend() != "linear" {
		t.Errorf("Backend() = %q, want linear", idx.Backend())
	}
	if got, want := idx.Query(a, b), exact.Scores.At(a, b); math.Abs(got-want) > 1e-6 {
		t.Errorf("linear backend Query = %v, facade Exact = %v", got, want)
	}
	if _, err := idx.SingleSource(a); err != nil {
		t.Errorf("linear backend SingleSource: %v", err)
	}

	// The reduced backend is exact for retained pairs; co-authors a,b
	// have sem well above theta, so their score matches the fixpoint.
	opts = base
	opts.Backend = "reduced"
	ridx, err := BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatalf("BuildIndex reduced: %v", err)
	}
	if got, want := ridx.Query(a, b), exact.Scores.At(a, b); math.Abs(got-want) > 1e-6 {
		t.Errorf("reduced backend Query = %v, facade Exact = %v", got, want)
	}

	// Unknown backends fail the build with the alternatives listed.
	opts = base
	opts.Backend = "quantum"
	if _, err := BuildIndex(g, lin, opts); err == nil {
		t.Error("BuildIndex accepted an unknown backend")
	} else if !strings.Contains(err.Error(), "mc") {
		t.Errorf("unknown-backend error does not list alternatives: %v", err)
	}
}

// TestFacadeAutoPlanIdentity is the acceptance invariant of the adaptive
// planner: with AutoPlan on, query results are bit-identical to the
// caller-chosen paths on an identically-built index, and the planner's
// decisions surface in Snapshot().
func TestFacadeAutoPlanIdentity(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	base := IndexOptions{
		NumWalks: 300, WalkLength: 10, Theta: 0.05, SLINGCutoff: 0.1,
		Seed: 4, MeetIndex: true,
	}
	plain, err := BuildIndex(g, lin, base)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	opts := base
	opts.AutoPlan = true
	opts.Metrics = NewMetrics()
	planned, err := BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatalf("BuildIndex autoplan: %v", err)
	}

	for v := 0; v < g.NumNodes(); v++ {
		u := NodeID(v)
		a, b := plain.TopK(u, 5), planned.TopK(u, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("planner-routed TopK differs from caller-chosen at u=%d:\n%v\nvs\n%v", u, b, a)
		}
	}

	snap := planned.Snapshot()
	var total int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "semsim_plan_total{") {
			total += v
		}
	}
	if want := int64(g.NumNodes()); total != want {
		t.Errorf("Snapshot shows %d planner decisions, want %d", total, want)
	}
}

// TestFacadeBoundsValidation pins the shim contracts: BatchQuery and
// SingleSource surface validation errors, Query/TopK stay non-panicking
// on malformed IDs (returning the documented zero values).
func TestFacadeBoundsValidation(t *testing.T) {
	g, tax := buildSample(t)
	idx, err := BuildIndex(g, NewLin(tax), IndexOptions{
		NumWalks: 100, WalkLength: 8, Seed: 5, MeetIndex: true,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	n := NodeID(g.NumNodes())

	if _, err := idx.BatchQuery([][2]NodeID{{0, 1}, {n, 0}}, 0); err == nil {
		t.Error("BatchQuery accepted an out-of-range node id")
	} else if !strings.Contains(err.Error(), "pair 1") {
		t.Errorf("BatchQuery error does not identify the offending pair: %v", err)
	}
	if _, err := idx.BatchQuery([][2]NodeID{{0, -1}}, 0); err == nil {
		t.Error("BatchQuery accepted a negative node id")
	}
	got, err := idx.BatchQuery([][2]NodeID{{0, 1}}, 0)
	if err != nil || len(got) != 1 {
		t.Errorf("valid BatchQuery failed: %v %v", got, err)
	}

	if _, err := idx.SingleSource(n); err == nil {
		t.Error("SingleSource accepted an out-of-range node id")
	}
	if s := idx.Query(n, 0); s != 0 {
		t.Errorf("Query with bad id = %v, want 0", s)
	}
	if s := idx.Query(0, -3); s != 0 {
		t.Errorf("Query with negative id = %v, want 0", s)
	}
	if top := idx.TopK(n, 3); top != nil {
		t.Errorf("TopK with bad id = %v, want nil", top)
	}
}
