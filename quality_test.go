package semsim

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExplainQueryBitIdentity: the public explain path returns the same
// score Query does, bit for bit, on every backend.
func TestExplainQueryBitIdentity(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	for _, backend := range []string{"mc", "reduced", "linear"} {
		idx, err := BuildIndex(g, lin, IndexOptions{
			NumWalks: 80, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1,
			Seed: 1, Backend: backend,
		})
		if err != nil {
			t.Fatalf("BuildIndex(%s): %v", backend, err)
		}
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := idx.Query(NodeID(u), NodeID(v))
				ex, err := idx.ExplainQuery(NodeID(u), NodeID(v))
				if err != nil {
					t.Fatalf("%s ExplainQuery(%d,%d): %v", backend, u, v, err)
				}
				if ex.Score != want {
					t.Fatalf("%s (%d,%d): explain score %v != query %v", backend, u, v, ex.Score, want)
				}
				if ex.Backend != backend {
					t.Fatalf("%s: explanation claims backend %q", backend, ex.Backend)
				}
			}
		}
		if _, err := idx.ExplainQuery(NodeID(n), 0); !errors.Is(err, ErrNodeOutOfRange) {
			t.Errorf("%s: out-of-range explain error = %v, want ErrNodeOutOfRange", backend, err)
		}
	}
}

// TestExplainQueryEvidence: on the mc backend the public explanation
// carries the sampling evidence and provenance the /explain payload
// documents.
func TestExplainQueryEvidence(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 100, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	a, _ := g.NodeByName("a")
	b, _ := g.NodeByName("b")
	ex, err := idx.ExplainQuery(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumWalks != 100 {
		t.Errorf("NumWalks = %d, want 100", ex.NumWalks)
	}
	if ex.Theta != 0.05 || ex.CIConfidence != 0.95 {
		t.Errorf("theta/confidence provenance wrong: %+v", ex)
	}
	if ex.SOCacheMode != "dense" && ex.SOCacheMode != "map" {
		t.Errorf("SOCacheMode = %q with SLING cache enabled", ex.SOCacheMode)
	}
	if ex.KernelMode != idx.KernelMode() {
		t.Errorf("KernelMode = %q, index reports %q", ex.KernelMode, idx.KernelMode())
	}
	if ex.CILow > ex.Score || ex.Score > ex.CIHigh {
		t.Errorf("CI [%v,%v] does not contain the clamped score %v", ex.CILow, ex.CIHigh, ex.Score)
	}
}

// TestShadowEndToEnd: with ShadowRate 1 every query is re-verified on
// the default linear reference; on a graph this small the estimate errors stay
// inside the theta envelope, so no critical drift fires.
func TestShadowEndToEnd(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	reg := NewMetrics()
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 200, WalkLength: 10, Theta: 0.05, SLINGCutoff: 0.1, Seed: 3,
		Metrics: reg, ShadowRate: 1,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	n := g.NumNodes()
	queries := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			idx.Query(NodeID(u), NodeID(v))
			queries++
		}
	}
	idx.Close() // drains the verification queue
	idx.Close() // second Close is a documented no-op

	snap := reg.Snapshot()
	checked := snap.Counters["semsim_shadow_checked_total"]
	dropped := snap.Counters["semsim_shadow_dropped_total"]
	if checked == 0 {
		t.Fatal("shadow verifier checked nothing at rate 1")
	}
	if checked+dropped != int64(queries) {
		t.Errorf("checked %d + dropped %d != %d queries offered", checked, dropped, queries)
	}
	if errs := snap.Counters["semsim_shadow_errors_total"]; errs != 0 {
		t.Errorf("shadow reference errored %d times", errs)
	}
	if h := snap.Histograms["semsim_shadow_abs_err"]; h.Count != checked {
		t.Errorf("abs_err observations %d != checked %d", h.Count, checked)
	}
	// The shadow build either reused the backend or timed a reference
	// build; either way the worst observed error is a real number <= 1.
	if w := snap.Gauges["semsim_shadow_worst_abs_err"]; w < 0 || w > 1 {
		t.Errorf("worst abs err gauge = %v", w)
	}
}

// TestShadowBackendSelection: the default shadow reference is "linear",
// so a linear index is reused as its own reference (no second build, no
// shadow-backend span), while the default mc backend forces a
// reference build.
func TestShadowBackendSelection(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)

	reg := NewMetrics()
	tr := NewTrace("build")
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 50, WalkLength: 8, Seed: 4,
		Backend: "linear", Metrics: reg, Trace: tr, ShadowRate: 1,
	})
	if err != nil {
		t.Fatalf("BuildIndex(linear): %v", err)
	}
	defer idx.Close()
	if h := reg.Snapshot().Histograms["semsim_build_shadow_backend_seconds"]; h.Count != 0 {
		t.Errorf("linear index built a redundant shadow reference (%d builds)", h.Count)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "shadow-backend" {
			t.Errorf("linear index built a second reference (span %+v)", sp)
		}
	}

	reg2 := NewMetrics()
	idx2, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 50, WalkLength: 8, Seed: 4,
		Metrics: reg2, ShadowRate: 1,
	})
	if err != nil {
		t.Fatalf("BuildIndex(mc): %v", err)
	}
	defer idx2.Close()
	if h := reg2.Snapshot().Histograms["semsim_build_shadow_backend_seconds"]; h.Count != 1 {
		t.Errorf("mc index recorded %d shadow reference builds, want 1", h.Count)
	}
}

// TestShadowDefaultFailsAboveCap: above the linear backend's node cap
// the default shadow reference cannot be built, and BuildIndex says so
// at once, naming both ways out, instead of falling back to a reference
// that may take minutes to build.
func TestShadowDefaultFailsAboveCap(t *testing.T) {
	b := NewGraphBuilder()
	const n = 4097
	for i := 0; i < n; i++ {
		b.AddNode("n"+strconv.Itoa(i), "t")
	}
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n), "e", 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	start := time.Now()
	_, err = BuildIndex(g, UniformMeasure(), IndexOptions{
		NumWalks: 1, WalkLength: 4, Seed: 1, SemanticKernel: "off", ShadowRate: 1,
	})
	if err == nil {
		t.Fatal("BuildIndex built a default shadow reference above the linear cap")
	}
	for _, want := range []string{"caps at 4096", "-shadow-rate 0", "-shadow-backend reduced"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("failing the default shadow took %v", d)
	}
}

// TestShadowQueryAllocFree: offering queries to the shadow verifier
// must not allocate on the hot path (the nil-is-off contract extends to
// the enabled path: value-struct channel sends only).
func TestShadowQueryAllocFree(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 50, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1, Seed: 5,
		SemanticKernel: "on", ShadowRate: 256, ShadowQueue: 4096,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	defer idx.Close()
	if err := warmKernel(idx); err != nil {
		t.Fatal(err)
	}
	a, _ := g.NodeByName("a")
	b, _ := g.NodeByName("b")
	allocs := testing.AllocsPerRun(500, func() {
		idx.Query(a, b)
	})
	if allocs != 0 {
		t.Errorf("Query with shadow enabled allocates %v per call, want 0", allocs)
	}
}

// warmKernel touches every pair once so lazy layers (kernel memo,
// SLING cache) are populated before an allocation measurement.
func warmKernel(idx *Index) error {
	n := idx.Graph().NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			idx.Query(NodeID(u), NodeID(v))
		}
	}
	// Give the shadow worker a beat to drain so its verifications do not
	// overlap the measurement window.
	time.Sleep(10 * time.Millisecond)
	return nil
}
