package main

import (
	"fmt"
	"math"
	"net/http"
	"os"

	"semsim"
)

// loadGraph reads the generated graph back the way serve does.
func loadGraph(path string) (*semsim.Graph, semsim.Measure, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, err := semsim.ReadGraph(f)
	if err != nil {
		return nil, nil, err
	}
	tax, err := semsim.BuildTaxonomy(g, semsim.TaxonomyOptions{})
	if err != nil {
		return nil, nil, err
	}
	return g, semsim.NewLin(tax), nil
}

// openIndex builds or opens an index over the workload's inputs the way
// serve does for its flags.
func openIndex(w *workload, in *inputs, g *semsim.Graph, lin semsim.Measure, opts semsim.IndexOptions) (*semsim.Index, error) {
	if w.lazy {
		return semsim.OpenIndexFile(in.walksPath, g, lin, opts)
	}
	return semsim.BuildIndex(g, lin, opts)
}

// buildRef builds the reference index the output checks compare the
// server against: serve's options with the shadow verifier off. The
// verifier only observes returned scores, so scores are unaffected, and
// commits skip the reference rebuild.
func buildRef(w *workload, in *inputs) (*semsim.Index, error) {
	g, lin, err := loadGraph(in.graphPath)
	if err != nil {
		return nil, err
	}
	opts := w.indexOptions(0)
	opts.Metrics = semsim.NewMetrics()
	return openIndex(w, in, g, lin, opts)
}

// checkProbes compares the server's answers for the fixed probe pairs
// and sources with ref: /query and /explain scores must be bit-identical
// to ref's Query, and /topk lists identical to ref's TopK. Each probe is
// one attempted request; a mismatch counts as a failed one.
func checkProbes(hc *http.Client, base string, ref *semsim.Index, in *inputs, t *tally) {
	g := ref.Graph()
	for _, p := range in.probePairs {
		u, _ := g.NodeByName(p[0])
		v, _ := g.NodeByName(p[1])
		want := ref.Query(u, v)
		for _, ep := range []string{"query", "explain"} {
			r := request{ep: ep, u: p[0], v: p[1]}
			a, lat, oc, err := doRead(hc, base, r)
			if oc == outcomeOK && math.Float64bits(a.score) != math.Float64bits(want) {
				oc, err = outcomeCheck, fmt.Errorf("probe %s: served %v, in-process %v", readPath(r), a.score, want)
			}
			t.record("probe", lat, oc, err)
		}
	}
	for _, src := range in.probeSources {
		u, _ := g.NodeByName(src)
		r := request{ep: "topk", u: src}
		a, lat, oc, err := doRead(hc, base, r)
		if oc == outcomeOK {
			if msg := diffHits(a.hits, toHits(g, ref.TopK(u, topK))); msg != "" {
				oc, err = outcomeCheck, fmt.Errorf("probe %s: %s", readPath(r), msg)
			}
		}
		t.record("probe", lat, oc, err)
	}
}

func toHits(g *semsim.Graph, res []semsim.Scored) []hit {
	out := make([]hit, len(res))
	for i, s := range res {
		out[i] = hit{g.NodeName(s.Node), s.Score}
	}
	return out
}

// diffHits describes the first difference between two top-k lists, or
// returns "" when they are identical (names and score bits).
func diffHits(got, want []hit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("hit %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// probeCheck builds a reference index, commits batches on it in order
// (as the writer did), checks the probes against the server and releases
// the index again. After the commits, the reference's epoch must be the
// number of batches.
func probeCheck(hc *http.Client, base string, w *workload, in *inputs, batches []batch, t *tally) error {
	ref, err := buildRef(w, in)
	if err != nil {
		return err
	}
	defer ref.Close()
	for _, b := range batches {
		if _, err := commitBatch(ref, in.relation, b); err != nil {
			return err
		}
	}
	if e := ref.Epoch(); e != uint64(len(batches)) {
		t.fail(fmt.Errorf("the reference is at epoch %d after %d commits", e, len(batches)))
	}
	checkProbes(hc, base, ref, in, t)
	return nil
}

// httpStep sends op i to the server and checks the answer against the
// in-process replay record: scores, cost vectors and top-k lists must be
// identical, and a commit must land on the same epoch.
func httpStep(hc *http.Client, base, label string, i int, o op, want *record, pass *tally) {
	if o.isBatch {
		a, lat, oc, err := doMutate(hc, base, label, o.batch)
		if oc == outcomeOK && a.epoch != want.epoch {
			oc, err = outcomeCheck, fmt.Errorf("replay commit %d: served epoch %d, in-process %d", i, a.epoch, want.epoch)
		}
		pass.record("mutate", lat, oc, err)
		return
	}
	a, lat, oc, err := doRead(hc, base, o.req)
	if oc == outcomeOK {
		switch {
		case math.Float64bits(a.score) != math.Float64bits(want.score):
			oc, err = outcomeCheck, fmt.Errorf("replay %d %s: served %v, in-process %v", i, readPath(o.req), a.score, want.score)
		case a.cost != want.cost:
			oc, err = outcomeCheck, fmt.Errorf("replay %d %s: served cost %+v, in-process %+v", i, readPath(o.req), a.cost, want.cost)
		case o.req.ep == "topk" && diffHits(a.hits, want.hits) != "":
			oc, err = outcomeCheck, fmt.Errorf("replay %d %s: %s", i, readPath(o.req), diffHits(a.hits, want.hits))
		}
	}
	pass.record(o.req.ep, lat, oc, err)
}
