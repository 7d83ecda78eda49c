package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"semsim"
)

// span is one timed call recorded by the benchmark around a layer's
// public function. Spans of one replayed request share req; parent is
// the index of the enclosing span (-1 for a root).
type span struct {
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.t0)
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(req, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return t.spans[ch[a]].Start < t.spans[ch[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, c := range ch {
			lo, hi := max(t.spans[c].Start, reach), min(t.spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// record is what one replayed op produced.
type record struct {
	ep        string
	score     float64
	cost      semsim.Cost
	hits      []hit
	strategy  string        // PlanStrategy(k) after the op
	env       time.Duration // the in-process request envelope
	epoch     uint64        // commits
	resampled int           // commits
}

// serveWarmup repeats the warm-up traffic `semsim serve` runs before it
// reports ready, so an in-process index starts from the server's state.
func serveWarmup(idx *semsim.Index) {
	n := idx.Graph().NumNodes()
	for i := 0; i < serveWarmupQueries && n > 1; i++ {
		idx.Query(semsim.NodeID(i%n), semsim.NodeID((i+1)%n))
	}
	if n > 1 {
		idx.TopK(0, 5)
	}
}

// replayer runs ops against one index, one call at a time, making the
// same facade calls in the same order as serve's handlers — name
// resolution, the scoring calls, JSON encoding of the response shape,
// the mutation commit — with a span around each when a tracer is given.
// Each op's root span is its request envelope.
type replayer struct {
	idx   *semsim.Index
	label string
	buf   bytes.Buffer
	enc   *json.Encoder
}

func newReplayer(idx *semsim.Index, label string) *replayer {
	r := &replayer{idx: idx, label: label}
	r.enc = json.NewEncoder(&r.buf)
	r.enc.SetIndent("", "  ")
	return r
}

func (rp *replayer) encode(tr *tracer, i, root int, v any) error {
	rp.buf.Reset()
	id := tr.begin(i, root, "serve.encode")
	err := rp.enc.Encode(v)
	tr.end(id)
	return err
}

// step replays op i.
func (rp *replayer) step(i int, o op, tr *tracer) (record, error) {
	idx := rp.idx
	var rec record
	t0 := time.Now()
	if o.isBatch {
		rec.ep = "mutate"
		root := tr.begin(i, -1, "serve.mutate")
		id := tr.begin(i, root, "facade.commit")
		st, err := commitBatch(idx, rp.label, o.batch)
		tr.end(id)
		tr.end(root)
		rec.env, rec.epoch, rec.resampled = time.Since(t0), st.Epoch, st.ResampledWalks
		return rec, err
	}
	r := o.req
	rec.ep = r.ep
	root := tr.begin(i, -1, "serve."+r.ep)
	g := idx.Graph()
	var (
		u, v     semsim.NodeID
		okU, okV = false, true
	)
	tr.timed(i, root, "serve.resolve", func() {
		u, okU = g.NodeByName(r.u)
		if r.ep != "topk" {
			v, okV = g.NodeByName(r.v)
		}
	})
	if !okU || !okV {
		return rec, fmt.Errorf("replay: unknown node in %+v", r)
	}
	var err error
	switch r.ep {
	case "query":
		var sem, simrank float64
		tr.timed(i, root, "facade.query", func() { rec.score = idx.QueryCost(u, v, &rec.cost) })
		tr.timed(i, root, "semantic.sim", func() { sem = idx.Sem().Sim(u, v) })
		tr.timed(i, root, "facade.simrank", func() { simrank = idx.SimRankQuery(u, v) })
		err = rp.encode(tr, i, root, map[string]any{
			"u": r.u, "v": r.v, "sem": sem, "semsim": rec.score, "simrank": simrank, "cost": &rec.cost,
		})
	case "explain":
		var ex *semsim.Explanation
		tr.timed(i, root, "facade.explain", func() { ex, err = idx.ExplainQuery(u, v) })
		if err != nil {
			return rec, err
		}
		ex.UName, ex.VName = r.u, r.v
		rec.score, rec.cost = ex.Score, ex.Cost
		err = rp.encode(tr, i, root, ex)
	case "topk":
		var res []semsim.Scored
		tr.timed(i, root, "facade.topk", func() { res = idx.TopKCost(u, topK, &rec.cost) })
		tr.timed(i, root, "engine.plan", func() { rec.strategy = idx.PlanStrategy(topK) })
		rec.hits = make([]hit, 0, len(res))
		for _, s := range res {
			rec.hits = append(rec.hits, hit{g.NodeName(s.Node), s.Score})
		}
		err = rp.encode(tr, i, root, map[string]any{"u": r.u, "k": topK, "results": rec.hits, "cost": &rec.cost})
	}
	tr.end(root)
	rec.env = time.Since(t0)
	if rec.strategy == "" {
		rec.strategy = idx.PlanStrategy(topK)
	}
	return rec, err
}

// commitBatch applies one single-edge batch the way serve's /mutate
// handler does: resolve names on the current epoch, stage, commit.
func commitBatch(idx *semsim.Index, label string, b batch) (semsim.CommitStats, error) {
	g := idx.Graph()
	u, ok1 := g.NodeByName(b.from)
	v, ok2 := g.NodeByName(b.to)
	if !ok1 || !ok2 {
		return semsim.CommitStats{}, fmt.Errorf("batch names unknown: %+v", b)
	}
	m := idx.NewMutator()
	if b.add {
		m.AddEdge(u, v, label, 1)
	} else {
		m.RemoveEdge(u, v, label)
	}
	return m.Commit()
}

// costFields names the Cost counters in the order the ledger prints them.
var costFields = []string{"pairs", "walk_steps", "meet_cells", "so_hits", "so_misses",
	"kernel_probes", "sem_skips", "walk_caps", "block_hits", "block_misses", "bytes_decoded"}

func costValues(c *semsim.Cost) []int64 {
	return []int64{c.Pairs, c.WalkSteps, c.MeetCells, c.SOHits, c.SOMisses,
		c.KernelProbes, c.SemSkips, c.WalkCaps, c.BlockHits, c.BlockMisses, c.BytesDecoded}
}

// ledger is the exact cost ledger: every Cost field summed per endpoint,
// plus the request count behind each sum.
type ledger map[string]*ledgerRow

type ledgerRow struct {
	n    int
	cost semsim.Cost
}

func makeLedger(recs []record) ledger {
	l := ledger{}
	for i := range recs {
		r := &recs[i]
		if r.ep == "mutate" {
			continue
		}
		row := l[r.ep]
		if row == nil {
			row = &ledgerRow{}
			l[r.ep] = row
		}
		row.n++
		row.cost.Add(&r.cost)
	}
	return l
}
