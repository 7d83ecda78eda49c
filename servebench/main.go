// Command servebench is the serving benchmark of semsim: it starts a
// fresh `semsim serve` child on a graph generated from a seed, drives it
// over HTTP in a closed loop, checks the answers against an in-process
// index, and prints the end-to-end metrics; with -trace 1 it instead
// replays the same seeded requests in-process with a span around every
// layer call and prints the per-layer metrics. See README.md.
//
//	servebench -semsim BIN -workdir DIR -workload point-hot -seed 1 -seconds 10 -trace 0
//	servebench -compare A.json B.json
//
// run.sh builds both binaries from the checkout and passes -semsim and
// -workdir. The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric the result line carries.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0). "main" is the
// workload's principal read endpoint and "side" its second endpoint
// (see workload.mainEP / sideEP), so every workload reports the same set.
// The main endpoint's p99 did not repeat within a tenth across seeds on a
// 2-vCPU VM, and neither did the closed loop's throughput, which follows
// the host's wake-up delays and stolen time; the traced run reports them
// as load.main_p99_ms and load.throughput_rps. cpu_us_per_read is the
// server's cost per read, which the kernel's steal accounting keeps
// apart from the time the host runs something else.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_us_per_read", "us"},
	{"main_p50_ms", "ms"},
	{"side_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run (-trace 1), plus the cost
// ledger (ledger.<endpoint>.<field>) appended by ledgerDefs.
var perLayer = append([]metricDef{
	{"load.main_p99_ms", "ms"},
	{"load.throughput_rps", "req/s"},
	{"hin.read_s", "s"},
	{"walk.build_s", "s"},
	{"walk.open_s", "s"},
	{"walk.meet_build_s", "s"},
	{"semantic.kernel_build_s", "s"},
	{"quality.shadow_build_s", "s"},
	{"serve.resolve_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.query_overhead_us", "us"},
	{"serve.explain_overhead_us", "us"},
	{"serve.topk_overhead_us", "us"},
	{"facade.query_us", "us"},
	{"facade.simrank_us", "us"},
	{"semantic.sim_us", "us"},
	{"facade.explain_us", "us"},
	{"facade.topk_us", "us"},
	{"engine.topk_brute_us", "us"},
	{"engine.plan_share.brute", "ratio"},
	{"engine.plan_share.sem-bounded", "ratio"},
	{"engine.plan_share.collision", "ratio"},
	{"engine.plan_share.linear", "ratio"},
	{"mc.walk_steps_per_query", "count"},
	{"mc.walk_caps_per_query", "count"},
	{"semantic.kernel_probes_per_query", "count"},
	{"mc.pairs_per_topk", "count"},
	{"mc.sem_skips_per_topk", "count"},
	{"mc.walk_steps_per_topk", "count"},
	{"walk.meet_cells_per_topk", "count"},
	{"mc.so_hit_ratio", "ratio"},
	{"walk.block_hit_ratio", "ratio"},
	{"walk.bytes_decoded_per_query", "bytes"},
	{"walk.view_us", "us"},
	{"facade.commit_ms", "ms"},
	{"facade.resampled_walks_per_commit", "count"},
	{"walk.refresh_ms", "ms"},
	{"walk.meet_repair_ms", "ms"},
	{"quality.shadow_rebuild_ms", "ms"},
	{"mc.so_cache_hit_ratio_live", "ratio"},
	{"walk.cache_hit_ratio_live", "ratio"},
	{"walk.cache_evictions_per_req", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.gc_cycles_per_kreq", "count"},
	{"host.timer_overshoot_us_p50", "us"},
	{"host.timer_overshoot_us_p99", "us"},
	{"coverage.query", "ratio"},
	{"coverage.explain", "ratio"},
	{"coverage.topk", "ratio"},
	{"coverage.mutate", "ratio"},
	{"trace.overhead_query_us", "us"},
	{"trace.overhead_explain_us", "us"},
	{"trace.overhead_topk_us", "us"},
}, ledgerDefs()...)

// ledgerEndpoints are the endpoints whose requests carry a Cost.
var ledgerEndpoints = []string{"query", "explain", "topk"}

func ledgerDefs() []metricDef {
	var defs []metricDef
	for _, ep := range ledgerEndpoints {
		for _, f := range costFields {
			defs = append(defs, metricDef{"ledger." + ep + "." + f, "count"})
		}
	}
	return defs
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	semsim   string
	workdir  string
}

// setupStarts is how many times an untraced run starts serve; setup_s is
// the median of their set-up times.
const setupStarts = 3

// warmup is the closed-loop load before the measured phase: it lets the
// server's lazily filled caches and the connections settle.
const warmup = 5 * time.Second

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: point-hot, topk-churn or point-lazy")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (graph, requests, batches)")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured closed-loop phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	flag.StringVar(&cfg.semsim, "semsim", "", "path to the semsim binary to serve with")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for generated inputs, logs and results")
	compare := flag.Bool("compare", false, "compare two result files (args: A.json B.json) instead of running")
	flag.Parse()
	if *compare {
		if err := compareResults(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// report collects metric values with their units and sample notes.
type report struct {
	order []string
	vals  map[string]float64
	units map[string]string
	notes map[string]string
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name], r.units[name], r.notes[name] = v, unit, note
}

// result is the file written per run and read back by -compare.
type result struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Units      map[string]string  `json:"units"`
	Notes      map[string]string  `json:"notes"`
	Failures   []string           `json:"failures,omitempty"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.semsim == "" || cfg.workdir == "" {
		return fmt.Errorf("-semsim and -workdir are required (run through run.sh)")
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 {
		return fmt.Errorf("bad -seconds or -trace")
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, cfg.trace)
	dir := filepath.Join(cfg.workdir, "runs", tag)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	resultDir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}

	probeP50, probeP99 := timerProbe()
	in, err := makeInputs(w, cfg.seed, dir)
	if err != nil {
		return err
	}
	args := w.serveArgs(in)
	prov := collectProvenance(cfg, w, in, args)
	rep := newReport()
	rep.set("host.timer_overshoot_us_p50", "us", probeP50, fmt.Sprintf("n=%d", timerProbes))
	rep.set("host.timer_overshoot_us_p99", "us", probeP99, fmt.Sprintf("n=%d", timerProbes))
	t := newTally()
	if cfg.trace == 1 {
		err = tracedRun(cfg, w, in, args, dir, rep, t)
	} else {
		err = endToEndRun(cfg, w, in, args, dir, rep, t)
	}
	if err != nil {
		return err
	}
	// The inputs are regenerated from the seed on every run; only logs,
	// spans and results stay.
	os.Remove(in.graphPath)
	if in.walksPath != "" {
		os.Remove(in.walksPath)
	}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, ok := rep.vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = jsonMetric{v, d.unit}
	}
	correct, why := t.verdict(w.mainEP, w.sideEP)
	res := result{Provenance: prov, Correct: correct, Attempted: t.attempted, Failed: t.failed,
		Metrics: rep.vals, Units: rep.units, Notes: rep.notes, Failures: append(t.notes, why...)}
	if err := writeJSON(filepath.Join(resultDir, tag+".json"), res); err != nil {
		return err
	}

	pj, _ := json.Marshal(prov)
	fmt.Printf("servebench: provenance %s\n", pj)
	for _, name := range rep.order {
		fmt.Printf("servebench: %-36s = %-14.6g %-6s %s\n", name, rep.vals[name], rep.units[name], rep.notes[name])
	}
	fmt.Printf("servebench: fail_ratio = %.6g (%d failed of %d attempted)\n",
		ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	for _, n := range res.Failures {
		fmt.Printf("servebench: failure: %s\n", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": t.attempted, "failed": t.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// serveArgs are the serve flags for the workload's inputs.
func (w *workload) serveArgs(in *inputs) []string {
	args := []string{"-graph", in.graphPath}
	if w.lazy {
		args = append(args, "-load-walks", in.walksPath)
	}
	return append(args, w.serveFlags...)
}

// endToEndRun is the untraced run: setupStarts serve starts (setup_s is
// their median), output checks against an in-process index, the timed
// closed-loop phase on the last server, and the post-churn check.
func endToEndRun(cfg config, w *workload, in *inputs, args []string, dir string, rep *report, t *tally) error {
	var setups []float64
	var srv *server
	defer func() { srv.stop() }()
	for i := 0; i < setupStarts; i++ {
		s, d, err := startServe(cfg.semsim, args, filepath.Join(dir, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	if err := probeCheck(hc, srv.base, w, in, nil, t); err != nil {
		return err
	}
	// The load generator shares the CPUs with the server: return the
	// reference index's heap before the measured phase.
	freeMemory()
	epoch0, err := srv.epoch(hc)
	if err != nil {
		return err
	}
	load, err := runLoad(srv.base, w, in, warmup, time.Duration(cfg.seconds)*time.Second, srv.cmd.Process.Pid, epoch0)
	if err != nil {
		return err
	}
	t.merge(load.tally)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	if w.writer {
		epoch, err := srv.epoch(hc)
		if err != nil {
			return err
		}
		if epoch != epoch0+uint64(load.committed) {
			t.fail(fmt.Errorf("after %d commits from epoch %d the server is at epoch %d", load.committed, epoch0, epoch))
		}
		if err := probeCheck(hc, srv.base, w, in, in.batches[:load.committed], t); err != nil {
			return err
		}
	}

	rep.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d starts %v", len(setups), roundAll(setups)))
	rep.set("peak_rss_mb", "MB", rss, "VmHWM at end of run")
	rep.set("throughput_rps", "req/s", load.throughput(),
		fmt.Sprintf("%d 2xx reads in %.3fs, %d clients", load.okReads, load.elapsed.Seconds(), w.clients))
	rep.set("cpu_us_per_read", "us", load.cpuPerRead(),
		fmt.Sprintf("server CPU %.2fs (commits included) over %d 2xx reads", load.cpu.Seconds(), load.okReads))
	setLatency(rep, "main", w.mainEP, load.lat[w.mainEP], true)
	setLatency(rep, "side", w.sideEP, load.lat[w.sideEP], w.sideEP != "mutate")
	for _, ep := range []string{"query", "explain", "topk", "mutate"} {
		if lat := load.lat[ep]; len(lat) > 0 {
			setLatency(rep, ep, ep, lat, ep != "mutate")
		}
	}
	return nil
}

// setLatency reports the p50 (and p99) of one endpoint's latencies under
// prefix, with the sample count; a p99 notes how many samples lie beyond
// it and is flagged when fewer than ten do.
func setLatency(rep *report, prefix, ep string, lat []time.Duration, p99 bool) {
	xs := ms(lat)
	n := len(xs)
	rep.set(prefix+"_p50_ms", "ms", quantile(xs, 0.5), fmt.Sprintf("/%s n=%d", ep, n))
	if p99 {
		beyond := n - int(float64(n)*0.99+0.999999)
		note := fmt.Sprintf("/%s n=%d, %d beyond", ep, n, beyond)
		if beyond < 10 {
			note += " (too few samples for a p99)"
		}
		rep.set(prefix+"_p99_ms", "ms", quantile(xs, 0.99), note)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

const (
	timerProbes = 1000
	timerSleep  = 100 * time.Microsecond
)

// timerProbe measures how late a 100 µs sleep wakes up on this host,
// in µs at p50 and p99: the floor under any latency tail measured here.
func timerProbe() (p50, p99 float64) {
	over := make([]float64, timerProbes)
	for i := range over {
		t0 := time.Now()
		time.Sleep(timerSleep)
		over[i] = float64(time.Since(t0)-timerSleep) / float64(time.Microsecond)
	}
	return quantile(over, 0.5), quantile(over, 0.99)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareResults prints the metric-by-metric ratio B/A of two result
// files, refusing results taken under different GOMAXPROCS or of
// different workloads or modes.
func compareResults(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two result files")
	}
	var rs [2]result
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0].Provenance, rs[1].Provenance
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s/trace%d with %s/trace%d", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for n := range rs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s %14s %8s\n", "metric", "A", "B", "B/A")
	for _, n := range names {
		av, bv := rs[0].Metrics[n], rs[1].Metrics[n]
		fmt.Printf("%-36s %14.6g %14.6g %8.3f %s\n", n, av, bv, ratio(bv, av), rs[0].Units[n])
	}
	return nil
}

// provenance identifies what produced a result.
type provenance struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      int      `json:"trace"`
	Seconds    int      `json:"seconds"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	CPU        string   `json:"cpu"`
	Nodes      int      `json:"nodes"`
	Edges      int      `json:"edges"`
	WalkBytes  int64    `json:"walk_file_bytes,omitempty"`
	ServeFlags []string `json:"serve_flags"`
	Time       string   `json:"time"`
}

func collectProvenance(cfg config, w *workload, in *inputs, args []string) provenance {
	// Input paths differ per checkout; keep only the flags.
	flags := []string{}
	for i := 0; i < len(args); i++ {
		if args[i] == "-graph" || args[i] == "-load-walks" {
			i++
			continue
		}
		flags = append(flags, args[i])
	}
	return provenance{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: sourceID(), CPU: cpuModel(),
		Nodes: in.g.NumNodes(), Edges: in.g.NumEdges(), WalkBytes: in.walkBytes,
		ServeFlags: flags, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
