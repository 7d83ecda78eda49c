package semsim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// buildSample constructs a small bibliographic-style network through the
// public API only.
func buildSample(t *testing.T) (*Graph, *Taxonomy) {
	t.Helper()
	b := NewGraphBuilder()
	authorCat := b.AddNode("Author", "category")
	fieldCat := b.AddNode("Field", "category")
	db := b.AddNode("Databases", "field")
	ml := b.AddNode("ML", "field")
	authors := make([]NodeID, 6)
	for i := range authors {
		authors[i] = b.AddNode(string(rune('a'+i)), "author")
		b.AddEdge(authors[i], authorCat, "is-a", 1)
		b.AddEdge(authorCat, authors[i], "has-instance", 1)
	}
	for _, f := range []NodeID{db, ml} {
		b.AddEdge(f, fieldCat, "is-a", 1)
		b.AddEdge(fieldCat, f, "has-instance", 1)
	}
	// Two communities around the two fields.
	for i := 0; i < 3; i++ {
		b.AddUndirected(authors[i], db, "interest", 2)
		b.AddUndirected(authors[3+i], ml, "interest", 2)
	}
	b.AddUndirected(authors[0], authors[1], "co-author", 3)
	b.AddUndirected(authors[1], authors[2], "co-author", 1)
	b.AddUndirected(authors[3], authors[4], "co-author", 2)
	b.AddUndirected(authors[4], authors[5], "co-author", 2)
	b.AddUndirected(authors[2], authors[3], "co-author", 1) // bridge
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	tax, err := BuildTaxonomy(g, TaxonomyOptions{})
	if err != nil {
		t.Fatalf("BuildTaxonomy: %v", err)
	}
	return g, tax
}

func TestFacadeExactAndIndexAgree(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	exact, err := Exact(g, lin, ExactOptions{C: 0.6, MaxIterations: 12})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	idx, err := BuildIndex(g, lin, IndexOptions{NumWalks: 2000, WalkLength: 12, Seed: 1, Parallel: true})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	a, b := g.MustNode("a"), g.MustNode("b")
	got := idx.Query(a, b)
	want := exact.Scores.At(a, b)
	if math.Abs(got-want) > 0.05 {
		t.Errorf("index estimate %v vs exact %v", got, want)
	}
	if idx.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
}

func TestFacadeTopK(t *testing.T) {
	g, tax := buildSample(t)
	idx, err := BuildIndex(g, NewLin(tax), IndexOptions{NumWalks: 300, WalkLength: 10, Theta: 0.05, SLINGCutoff: 0.1, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	a := g.MustNode("a")
	top := idx.TopK(a, 3)
	if len(top) == 0 {
		t.Fatal("TopK empty")
	}
	// a's closest neighbor should be in its own community.
	community := map[string]bool{"b": true, "c": true, "Databases": true, "Author": true}
	if !community[g.NodeName(top[0].Node)] {
		t.Errorf("TopK(a)[0] = %s, expected a community member", g.NodeName(top[0].Node))
	}
}

func TestFacadeSimRankAndVariants(t *testing.T) {
	g, _ := buildSample(t)
	sr, err := SimRank(g, SimRankOptions{C: 0.6, MaxIterations: 8})
	if err != nil {
		t.Fatalf("SimRank: %v", err)
	}
	srpp, err := SimRankPlusPlus(g, SimRankOptions{C: 0.6, MaxIterations: 8})
	if err != nil {
		t.Fatalf("SimRankPlusPlus: %v", err)
	}
	a, b := g.MustNode("a"), g.MustNode("b")
	if sr.Scores.At(a, b) <= 0 || srpp.Scores.At(a, b) <= 0 {
		t.Error("baseline scores should be positive for co-authors")
	}
}

func TestFacadeReduced(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	exact, err := Exact(g, lin, ExactOptions{C: 0.6, MaxIterations: 40})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	red, err := BuildReduced(g, lin, ReducedOptions{C: 0.6, Theta: 0.3, BypassDepth: 10, MinProb: 1e-12})
	if err != nil {
		t.Fatalf("BuildReduced: %v", err)
	}
	if red.NumPairs() == 0 {
		t.Fatal("no retained pairs")
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if !red.Contains(NodeID(u), NodeID(v)) {
				continue
			}
			got := red.Score(NodeID(u), NodeID(v))
			want := exact.Scores.At(NodeID(u), NodeID(v))
			if math.Abs(got-want) > 0.01 {
				t.Errorf("reduced score (%d,%d) = %v, exact %v", u, v, got, want)
			}
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g, _ := buildSample(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Error("graph IO round trip mismatch")
	}
}

func TestFacadeMeasuresAndBound(t *testing.T) {
	g, tax := buildSample(t)
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Measure{NewLin(tax), NewResnik(tax), NewWuPalmer(tax), NewPathMeasure(tax), UniformMeasure()} {
		if err := ValidateMeasure(m, g.NumNodes(), 200, rng); err != nil {
			t.Errorf("measure %s: %v", m.Name(), err)
		}
	}
	bound := DecayUpperBound(g, NewLin(tax), 0)
	if bound <= 0 || bound > 1 {
		t.Errorf("DecayUpperBound = %v", bound)
	}
}

func TestFacadeSingleSource(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	plain, err := BuildIndex(g, lin, IndexOptions{NumWalks: 200, WalkLength: 10, Seed: 5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if _, err := plain.SingleSource(0); err == nil {
		t.Error("SingleSource without MeetIndex should error")
	}
	idx, err := BuildIndex(g, lin, IndexOptions{NumWalks: 200, WalkLength: 10, Seed: 5, MeetIndex: true})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	a := g.MustNode("a")
	ss, err := idx.SingleSource(a)
	if err != nil {
		t.Fatalf("SingleSource: %v", err)
	}
	for _, s := range ss {
		if got := idx.Query(a, s.Node); got != s.Score {
			t.Errorf("SingleSource score %v != Query %v for %s", s.Score, got, g.NodeName(s.Node))
		}
	}
	// TopK via meet index must match the brute-force path.
	brute := plain.TopK(a, 4)
	fast := idx.TopK(a, 4)
	if len(brute) != len(fast) {
		t.Fatalf("TopK lengths differ: %d vs %d", len(brute), len(fast))
	}
	for i := range brute {
		if brute[i] != fast[i] {
			t.Errorf("TopK rank %d: %v vs %v", i, brute[i], fast[i])
		}
	}
	if idx.MemoryBytes() <= plain.MemoryBytes() {
		t.Error("meet index should add memory")
	}
}

func TestFacadePersistenceAndBatch(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	idx, err := BuildIndex(g, lin, IndexOptions{NumWalks: 100, WalkLength: 8, Theta: 0.01, SLINGCutoff: 0.1, Seed: 7})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := idx.SaveWalks(&buf); err != nil {
		t.Fatalf("SaveWalks: %v", err)
	}
	loaded, err := LoadIndex(&buf, g, lin, IndexOptions{Theta: 0.01, SLINGCutoff: 0.1, MeetIndex: true})
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	var pairs [][2]NodeID
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			pairs = append(pairs, [2]NodeID{NodeID(u), NodeID(v)})
		}
	}
	orig, err := idx.BatchQuery(pairs, 3)
	if err != nil {
		t.Fatalf("BatchQuery: %v", err)
	}
	for i, p := range pairs {
		if got := loaded.Query(p[0], p[1]); got != orig[i] {
			t.Fatalf("pair %v: loaded %v != original %v", p, got, orig[i])
		}
	}
	a := g.MustNode("a")
	// P-Rank facade smoke.
	pr, err := PRank(g, PRankOptions{})
	if err != nil {
		t.Fatalf("PRank: %v", err)
	}
	if pr.Scores.At(a, a) != 1 {
		t.Error("PRank diagonal")
	}
	// Jiang-Conrath admissibility via the facade.
	rng := rand.New(rand.NewSource(9))
	if err := ValidateMeasure(NewJiangConrath(tax), g.NumNodes(), 200, rng); err != nil {
		t.Errorf("JiangConrath: %v", err)
	}
}

func TestFacadeSimilarityJoin(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	exact, err := Exact(g, lin, ExactOptions{C: 0.6, MaxIterations: 40})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	const cutoff = 0.05
	pairs, err := SimilarityJoin(g, lin, cutoff, ReducedOptions{C: 0.6, BypassDepth: 12, MinProb: 1e-12})
	if err != nil {
		t.Fatalf("SimilarityJoin: %v", err)
	}
	want := 0
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if exact.Scores.At(NodeID(u), NodeID(v)) >= cutoff {
				want++
			}
		}
	}
	if len(pairs) != want {
		t.Fatalf("join found %d pairs, exact says %d", len(pairs), want)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Score > pairs[i-1].Score {
			t.Fatal("join not sorted")
		}
	}
}
