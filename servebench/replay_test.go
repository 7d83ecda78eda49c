package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayLedgerRepeats replays each workload's seeded ops twice, on
// two indexes built independently from the same inputs, and requires
// identical cost ledgers and answers: the per-layer counts the traced
// run prints are exact, so any change to them is a change in work done.
func TestReplayLedgerRepeats(t *testing.T) {
	for _, base := range workloads {
		w := *base
		w.items, w.replayReads = 200, 120
		if w.lazy {
			w.items = 1200
		}
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInputs(&w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ops := replayOps(&w, in)
			var runs [2][]record
			for k := range runs {
				g, lin, err := loadGraph(in.graphPath)
				if err != nil {
					t.Fatal(err)
				}
				idx, err := openIndex(&w, in, g, lin, w.indexOptions(0))
				if err != nil {
					t.Fatal(err)
				}
				serveWarmup(idx)
				rp := newReplayer(idx, in.relation)
				if err := rp.sweepCache(); err != nil {
					t.Fatal(err)
				}
				runs[k] = make([]record, len(ops))
				for i, o := range ops {
					if runs[k][i], err = rp.step(i, o, nil); err != nil {
						t.Fatal(err)
					}
				}
				idx.Close()
			}
			a, b := makeLedger(runs[0]), makeLedger(runs[1])
			if !a.equal(b) {
				t.Fatalf("ledgers differ:\n%+v\n%+v", a, b)
			}
			var work int64
			for _, row := range a {
				work += row.cost.Work()
			}
			if work == 0 {
				t.Fatal("replay recorded no work")
			}
			for i := range runs[0] {
				x, y := &runs[0][i], &runs[1][i]
				if x.score != y.score || x.epoch != y.epoch || diffHits(x.hits, y.hits) != "" {
					t.Fatalf("op %d answered differently: %+v vs %+v", i, x, y)
				}
			}
		})
	}
}

func (l ledger) equal(o ledger) bool {
	if len(l) != len(o) {
		return false
	}
	for ep, row := range l {
		if orow := o[ep]; orow == nil || orow.n != row.n || orow.cost != row.cost {
			return false
		}
	}
	return true
}

// TestSelfTimes checks the self-time arithmetic on a hand-built trace:
// a parent covered by two children, one of which overlaps the other.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Req: 0, Parent: -1, Start: 0, End: 100},
		{Req: 0, Parent: 0, Start: 10, End: 40},
		{Req: 0, Parent: 0, Start: 30, End: 60},
		{Req: 0, Parent: 2, Start: 35, End: 45},
	}}
	got := tr.selfTimes()
	want := []int64{50, 30, 20, 10}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Fatalf("self[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestCompareRefusesGOMAXPROCS checks that -compare refuses two results
// taken under different GOMAXPROCS and accepts matching ones.
func TestCompareRefusesGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		p := filepath.Join(dir, name)
		res := result{Provenance: provenance{Workload: "point-hot", GOMAXPROCS: procs},
			Metrics: map[string]float64{"main_p50_ms": 1}}
		if err := writeJSON(p, res); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 1)
	if err := compareResults([]string{a, b}); err != nil {
		t.Fatalf("matching GOMAXPROCS refused: %v", err)
	}
	if err := compareResults([]string{a, c}); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("GOMAXPROCS 2 vs 1 compared, err = %v", err)
	}
}
