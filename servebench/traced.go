package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"semsim"
)

// tracedRun is the per-layer run. It times the layers' build entry
// points with no server running, then starts one server and replays the
// seeded ops in lockstep (see runLockstep), and finally runs the
// untraced closed-loop phase between two /metrics scrapes.
func tracedRun(cfg config, w *workload, in *inputs, args []string, dir string, rep *report, t *tally) error {
	ops := replayOps(w, in)
	tr := newTracer(8*len(ops) + 16)
	lr, err := measureSetup(w, in, ops, tr)
	if err != nil {
		return err
	}

	// The facade with serve's exact options (traced); its twin with the
	// shadow verifier off, which observes scores and never changes them,
	// so the twin's commits skip the reference rebuild; and, for top-k,
	// the brute scan (no planner, no meet index).
	opts := w.indexOptions(w.shadowRate())
	opts.Metrics = semsim.NewMetrics()
	opts.Trace = semsim.NewTrace("build")
	traced, err := openIndex(w, in, lr.g, lr.lin, opts)
	if err != nil {
		return err
	}
	defer traced.Close()
	for _, s := range opts.Trace.Spans() {
		if s.Name == "shadow-backend" {
			lr.shadowBuildS += s.Duration.Seconds()
		}
	}
	twinOpts := w.indexOptions(0)
	twinOpts.Metrics = semsim.NewMetrics()
	twin, err := openIndex(w, in, lr.g, lr.lin, twinOpts)
	if err != nil {
		return err
	}
	defer twin.Close()
	var brute *semsim.Index
	if hasTopK(ops) {
		bopts := w.indexOptions(0)
		bopts.AutoPlan, bopts.MeetIndex = false, false
		if brute, err = openIndex(w, in, lr.g, lr.lin, bopts); err != nil {
			return err
		}
		defer brute.Close()
		serveWarmup(brute)
	}
	serveWarmup(traced)
	serveWarmup(twin)
	freeMemory()

	srv, _, err := startServe(cfg.semsim, args, filepath.Join(dir, "serve.log"))
	if err != nil {
		return err
	}
	defer srv.stop()
	hc := newClient()
	defer hc.CloseIdleConnections()
	ls, err := runLockstep(ops, in.relation, traced, twin, brute, hc, srv.base, tr, t)
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), tr.spans); err != nil {
		return err
	}

	before, err := srv.scrape(hc)
	if err != nil {
		return err
	}
	epoch0, err := srv.epoch(hc)
	if err != nil {
		return err
	}
	// The lockstep replay has already warmed the server, and the scrapes
	// must bracket exactly the phase the reads are counted over.
	load, err := runLoad(srv.base, w, in, 0, time.Duration(cfg.seconds)*time.Second, 0, epoch0)
	if err != nil {
		return err
	}
	after, err := srv.scrape(hc)
	if err != nil {
		return err
	}
	t.merge(load.tally)

	setSetupMetrics(rep, lr)
	setSpanMetrics(rep, w, tr, ls)
	setCostMetrics(rep, ls.recs)
	setLiveMetrics(rep, w, before, after, load)
	return nil
}

// lockstep is what runLockstep measured.
type lockstep struct {
	recs, twin []record        // traced replay, untraced twin
	brute      []time.Duration // brute TopK per top-k read
	http       *tally          // the 1-client HTTP pass
}

// runLockstep replays ops on every target side by side, op by op: the
// traced index and its untraced twin (alternating which goes first), the
// server from one client, and the brute-scan index for top-k reads and
// commits. Running them together keeps host drift out of their
// differences. The traced and untraced answers and cost vectors must be
// identical, the server's must equal them, and the brute scan must
// return the planned top-k lists; each mismatch is a failed check.
func runLockstep(ops []op, label string, traced, twin, brute *semsim.Index, hc *http.Client, base string,
	tr *tracer, t *tally) (*lockstep, error) {
	ls := &lockstep{recs: make([]record, len(ops)), twin: make([]record, len(ops)), http: newTally()}
	rt, rw := newReplayer(traced, label), newReplayer(twin, label)
	// A lazy store's block cache starts with whatever the parallel
	// meet-index build left resident, which depends on scheduling. A fixed
	// sweep of reads over evenly spaced nodes turns the whole cache over,
	// so every target starts the replay with the same residency and the
	// block fields of the cost vectors repeat exactly.
	if err := errors.Join(rt.sweepCache(), rw.sweepCache()); err != nil {
		return nil, err
	}
	if traced.LazyWalks() {
		for _, r := range cacheSweep(traced.Graph()) {
			_, lat, oc, err := doRead(hc, base, r)
			ls.http.record("sweep", lat, oc, err)
		}
	}
	for i, o := range ops {
		var err1, err2 error
		if i%2 == 0 {
			ls.recs[i], err1 = rt.step(i, o, tr)
			ls.twin[i], err2 = rw.step(i, o, nil)
		} else {
			ls.twin[i], err2 = rw.step(i, o, nil)
			ls.recs[i], err1 = rt.step(i, o, tr)
		}
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		want := &ls.recs[i]
		if got := &ls.twin[i]; got.score != want.score || got.cost != want.cost || got.epoch != want.epoch ||
			diffHits(got.hits, want.hits) != "" {
			t.fail(fmt.Errorf("replay op %d: the untraced twin answered differently", i))
		}
		httpStep(hc, base, label, i, o, want, ls.http)
		if brute == nil {
			continue
		}
		if o.isBatch {
			if _, err := commitBatch(brute, label, o.batch); err != nil {
				return nil, err
			}
		} else if o.req.ep == "topk" {
			u, _ := brute.Graph().NodeByName(o.req.u)
			t0 := time.Now()
			res := brute.TopK(u, topK)
			ls.brute = append(ls.brute, time.Since(t0))
			if msg := diffHits(toHits(brute.Graph(), res), want.hits); msg != "" {
				t.fail(fmt.Errorf("replay op %d: brute top-k differs from the planned one: %s", i, msg))
			}
		}
	}
	t.merge(ls.http)
	return ls, nil
}

// sweepCache replays the cacheSweep reads on a lazy index.
func (rp *replayer) sweepCache() error {
	if !rp.idx.LazyWalks() {
		return nil
	}
	for _, r := range cacheSweep(rp.idx.Graph()) {
		if _, err := rp.step(-1, op{req: r}, nil); err != nil {
			return err
		}
	}
	return nil
}

// cacheSweep reads pairs of evenly spaced nodes, touching more distinct
// walk blocks than the lazy cache budget holds.
func cacheSweep(g *semsim.Graph) []request {
	const nodes = 256
	n := g.NumNodes()
	out := make([]request, 0, nodes/2)
	for j := 0; j+1 < nodes; j += 2 {
		out = append(out, request{ep: "query",
			u: g.NodeName(semsim.NodeID(j * n / nodes)), v: g.NodeName(semsim.NodeID((j + 1) * n / nodes))})
	}
	return out
}

func hasTopK(ops []op) bool {
	for _, o := range ops {
		if !o.isBatch && o.req.ep == "topk" {
			return true
		}
	}
	return false
}

func setSetupMetrics(rep *report, lr *layerRun) {
	rep.set("hin.read_s", "s", lr.readS, "ReadGraph + BuildTaxonomy")
	rep.set("walk.build_s", "s", lr.walkBuildS, "walk.Build (0 when the store is opened lazily)")
	rep.set("walk.open_s", "s", lr.walkOpenS, "walk.OpenLazyFile (0 when resident)")
	rep.set("walk.meet_build_s", "s", lr.meetBuildS, "walk.BuildMeetIndex")
	rep.set("semantic.kernel_build_s", "s", lr.kernelBuildS, "semantic.NewKernel")
	rep.set("quality.shadow_build_s", "s", lr.shadowBuildS, "shadow-backend span of BuildIndex (0 with shadowing off)")
	rep.set("walk.view_us", "us", lr.viewUS, "mean walk.Index.View over the replay's read nodes")
	rep.set("walk.refresh_ms", "ms", median(ms(lr.refresh)), fmt.Sprintf("walk.Index.Refresh p50, n=%d", len(lr.refresh)))
}

// setSpanMetrics derives the per-call times, the span coverage of each
// endpoint's request envelope, the serve overhead (1-client HTTP p50
// minus the p50 of the in-process span sum) and the tracing overhead
// (traced minus untraced envelope p50).
func setSpanMetrics(rep *report, w *workload, tr *tracer, ls *lockstep) {
	pass := ls.http
	self := tr.selfTimes()
	byName := map[string][]time.Duration{}
	spanSum := map[string][]time.Duration{}
	covered := map[string]time.Duration{}
	envelope := map[string]time.Duration{}
	var encodeMain []time.Duration
	rootEP := func(i int) string {
		for tr.spans[i].Parent >= 0 {
			i = tr.spans[i].Parent
		}
		return strings.TrimPrefix(tr.spans[i].Name, "serve.")
	}
	for i, s := range tr.spans {
		if s.Req < 0 {
			continue // set-up spans
		}
		ep := rootEP(i)
		if s.Parent < 0 {
			spanSum[ep] = append(spanSum[ep], s.dur()-self[i])
			envelope[ep] += s.dur()
			continue
		}
		byName[s.Name] = append(byName[s.Name], s.dur())
		covered[ep] += self[i]
		if s.Name == "serve.encode" && ep == w.mainEP {
			encodeMain = append(encodeMain, s.dur())
		}
	}
	p50us := func(ds []time.Duration) float64 { return median(us(ds)) }
	n := func(name string) string { return fmt.Sprintf("p50, n=%d", len(byName[name])) }
	rep.set("serve.resolve_us", "us", p50us(byName["serve.resolve"]), "Graph.NodeByName x2 "+n("serve.resolve"))
	rep.set("serve.encode_us", "us", p50us(encodeMain), fmt.Sprintf("/%s response encode p50, n=%d", w.mainEP, len(encodeMain)))
	for _, c := range []struct{ metric, span string }{
		{"facade.query_us", "facade.query"},
		{"facade.simrank_us", "facade.simrank"},
		{"semantic.sim_us", "semantic.sim"},
		{"facade.explain_us", "facade.explain"},
		{"facade.topk_us", "facade.topk"},
	} {
		rep.set(c.metric, "us", p50us(byName[c.span]), n(c.span))
	}
	rep.set("facade.commit_ms", "ms", median(ms(byName["facade.commit"])), n("facade.commit"))
	rep.set("engine.topk_brute_us", "us", p50us(ls.brute), fmt.Sprintf("brute TopK p50, n=%d", len(ls.brute)))

	twinEnv := map[string][]time.Duration{}
	tracedEnv := map[string][]time.Duration{}
	var resampled []float64
	for i := range ls.recs {
		ep := ls.recs[i].ep
		tracedEnv[ep] = append(tracedEnv[ep], ls.recs[i].env)
		twinEnv[ep] = append(twinEnv[ep], ls.twin[i].env)
		if ep == "mutate" {
			resampled = append(resampled, float64(ls.recs[i].resampled))
		}
	}
	rep.set("facade.resampled_walks_per_commit", "count", mean(resampled), fmt.Sprintf("n=%d", len(resampled)))
	for _, ep := range []string{"query", "explain", "topk", "mutate"} {
		rep.set("coverage."+ep, "ratio", ratio(float64(covered[ep]), float64(envelope[ep])),
			fmt.Sprintf("self time of layer spans / envelope, %d requests", len(spanSum[ep])))
	}
	for _, ep := range []string{"query", "explain", "topk"} {
		httpP50, sum := 0.0, 0.0
		if len(pass.lat[ep]) > 0 && len(spanSum[ep]) > 0 {
			httpP50, sum = p50us(pass.lat[ep]), p50us(spanSum[ep])
		}
		rep.set("serve."+ep+"_overhead_us", "us", httpP50-sum,
			fmt.Sprintf("1-client HTTP p50 %.1fus (n=%d) - span sum p50 %.1fus", httpP50, len(pass.lat[ep]), sum))
		over := 0.0
		if len(tracedEnv[ep]) > 0 {
			over = p50us(tracedEnv[ep]) - p50us(twinEnv[ep])
		}
		rep.set("trace.overhead_"+ep+"_us", "us", over,
			fmt.Sprintf("traced - untraced envelope p50, n=%d", len(tracedEnv[ep])))
	}
	if ml := pass.lat["mutate"]; len(ml) > 0 {
		rep.set("http1.mutate_p50_ms", "ms", median(ms(ml)), fmt.Sprintf("1-client /mutate p50, n=%d", len(ml)))
	}
}

// setCostMetrics prints the exact cost ledger and the ratios derived
// from it, and the planner's strategy shares.
func setCostMetrics(rep *report, recs []record) {
	l := makeLedger(recs)
	for _, ep := range ledgerEndpoints {
		row := l[ep]
		if row == nil {
			row = &ledgerRow{}
		}
		for i, v := range costValues(&row.cost) {
			rep.set("ledger."+ep+"."+costFields[i], "count", float64(v), fmt.Sprintf("sum over %d requests", row.n))
		}
	}
	per := func(ep string, v func(*ledgerRow) int64) (float64, string) {
		row := l[ep]
		if row == nil {
			return 0, "no requests"
		}
		return ratio(float64(v(row)), float64(row.n)), fmt.Sprintf("per /%s, n=%d", ep, row.n)
	}
	for _, c := range []struct {
		name, ep string
		v        func(*ledgerRow) int64
	}{
		{"mc.walk_steps_per_query", "query", func(r *ledgerRow) int64 { return r.cost.WalkSteps }},
		{"mc.walk_caps_per_query", "query", func(r *ledgerRow) int64 { return r.cost.WalkCaps }},
		{"semantic.kernel_probes_per_query", "query", func(r *ledgerRow) int64 { return r.cost.KernelProbes }},
		{"walk.bytes_decoded_per_query", "query", func(r *ledgerRow) int64 { return r.cost.BytesDecoded }},
		{"mc.pairs_per_topk", "topk", func(r *ledgerRow) int64 { return r.cost.Pairs }},
		{"mc.sem_skips_per_topk", "topk", func(r *ledgerRow) int64 { return r.cost.SemSkips }},
		{"mc.walk_steps_per_topk", "topk", func(r *ledgerRow) int64 { return r.cost.WalkSteps }},
		{"walk.meet_cells_per_topk", "topk", func(r *ledgerRow) int64 { return r.cost.MeetCells }},
	} {
		unit := "count"
		if strings.HasPrefix(c.name, "walk.bytes") {
			unit = "bytes"
		}
		v, note := per(c.ep, c.v)
		rep.set(c.name, unit, v, note)
	}
	var all ledgerRow
	for _, row := range l {
		all.n += row.n
		all.cost.Add(&row.cost)
	}
	so := all.cost.SOHits + all.cost.SOMisses
	rep.set("mc.so_hit_ratio", "ratio", ratio(float64(all.cost.SOHits), float64(so)),
		fmt.Sprintf("SO hits / %d SO probes over %d replayed reads", so, all.n))
	blocks := all.cost.BlockHits + all.cost.BlockMisses
	rep.set("walk.block_hit_ratio", "ratio", ratio(float64(all.cost.BlockHits), float64(blocks)),
		fmt.Sprintf("block hits / %d block probes (0 when resident)", blocks))

	share := map[string]int{}
	reads := 0
	for _, r := range recs {
		if r.ep != "mutate" {
			share[r.strategy]++
			reads++
		}
	}
	for _, s := range []string{"brute", "sem-bounded", "collision", "linear"} {
		rep.set("engine.plan_share."+s, "ratio", ratio(float64(share[s]), float64(reads)),
			fmt.Sprintf("PlanStrategy(%d) after %d replayed reads", topK, reads))
	}
}

// setLiveMetrics derives the server-side ratios from the counter deltas
// across the untraced closed-loop phase.
func setLiveMetrics(rep *report, w *workload, before, after *scrape, load *loadRun) {
	d := func(name string) float64 { return delta(before, after, name) }
	// The per-request cost histograms, not the SO cache's own counters:
	// a commit swaps in a migrated cache whose counters start over.
	soHits, soMisses := d("semsim_query_cost_so_hits_sum"), d("semsim_query_cost_so_misses_sum")
	rep.set("mc.so_cache_hit_ratio_live", "ratio", ratio(soHits, soHits+soMisses),
		fmt.Sprintf("of %.0f SO probes over the closed-loop phase", soHits+soMisses))
	wHits, wMisses := d("semsim_walk_cache_hits_total"), d("semsim_walk_cache_misses_total")
	rep.set("walk.cache_hit_ratio_live", "ratio", ratio(wHits, wHits+wMisses),
		fmt.Sprintf("of %.0f block-cache probes (0 when resident)", wHits+wMisses))
	rep.set("walk.cache_evictions_per_req", "count", ratio(d("semsim_walk_cache_evictions_total"), float64(load.okReads)),
		fmt.Sprintf("over %d reads", load.okReads))
	commits := d("semsim_commit_total")
	rep.set("walk.meet_repair_ms", "ms", 1000*ratio(d("semsim_commit_meet_repair_seconds_sum"), commits),
		fmt.Sprintf("meet-index repair seconds inside Commit / %.0f commits", commits))
	rep.set("quality.shadow_rebuild_ms", "ms", 1000*ratio(d("semsim_build_shadow_backend_seconds_sum"), commits),
		fmt.Sprintf("shadow backend build seconds / %.0f commits", commits))
	secs := after.at.Sub(before.at).Seconds()
	rep.set("runtime.gc_pause_ms_per_s", "ms/s", ratio((after.pauseNS-before.pauseNS)/1e6, secs),
		fmt.Sprintf("over %.2fs", secs))
	rep.set("runtime.gc_cycles_per_kreq", "count", ratio(after.numGC-before.numGC, float64(load.okReads)/1000),
		fmt.Sprintf("%.0f cycles over %d reads", after.numGC-before.numGC, load.okReads))
	rep.set("load.throughput_rps", "req/s", load.throughput(),
		fmt.Sprintf("%d 2xx reads in %.3fs, %d clients", load.okReads, load.elapsed.Seconds(), w.clients))
	setLatency(rep, "load.main", w.mainEP, load.lat[w.mainEP], true)
	for _, ep := range []string{"query", "explain", "topk", "mutate"} {
		if lat := load.lat[ep]; len(lat) > 0 {
			setLatency(rep, "load."+ep, ep, lat, ep != "mutate")
		}
	}
}

func writeSpans(path string, spans []span) error {
	return writeFile(path, func(bw *bufio.Writer) error {
		enc := json.NewEncoder(bw)
		for i := range spans {
			if err := enc.Encode(spans[i]); err != nil {
				return err
			}
		}
		return nil
	})
}
