package semsim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"semsim/internal/engine"
	"semsim/internal/mc"
	"semsim/internal/obs/quality"
	"semsim/internal/pairgraph"
	"semsim/internal/rank"
	"semsim/internal/semantic"
	"semsim/internal/simrank"
	"semsim/internal/walk"
)

// errNoMeetIndex is returned by SingleSource when the backend cannot
// enumerate single-source results (the default mc backend without
// IndexOptions.MeetIndex).
var errNoMeetIndex = errors.New("semsim: index built without MeetIndex; set IndexOptions.MeetIndex")

// Scored pairs a node with a similarity score (top-k search results).
type Scored = rank.Scored

// IndexOptions configure BuildIndex: the precomputed walk index plus the
// Monte-Carlo estimator of Algorithm 1.
type IndexOptions struct {
	// NumWalks is n_w, walks per node (paper default 150).
	NumWalks int
	// WalkLength is t, the truncation point (paper default 15).
	WalkLength int
	// C is the decay factor (paper default 0.6).
	C float64
	// Theta enables pruning when > 0 (paper default 0.05): semantically
	// distant pairs score 0 and low-mass walks are capped, adding a
	// one-sided error bounded by Theta.
	Theta float64
	// SLINGCutoff, when > 0, attaches the SLING-style cache that
	// memoizes the O(d^2) per-step normalization for pairs with
	// sem >= cutoff (paper uses 0.1). 0 disables the cache.
	SLINGCutoff float64
	// SemanticKernel controls the precomputed semantic layer
	// (semantic.Kernel) wrapped around the measure before any estimator
	// or cache sees it:
	//
	//   - "" or "auto" (the default): wrap the stock immutable measures
	//     (Lin, Resnik, Wu-Palmer, Jiang-Conrath, Path, Uniform); leave
	//     Overrides, Funcs and other custom measures untouched, since
	//     the kernel snapshots values and would freeze later mutation;
	//   - "on": always wrap (custom measures fall back to per-node
	//     classes — still correct, just without concept collapsing);
	//   - "off": never wrap.
	//
	// The kernel turns every sem(u,v) on the query path into one array
	// read (dense mode) or a striped memo probe, with values
	// bit-identical to the wrapped measure.
	SemanticKernel string
	// KernelMemoryBudget caps the kernel's dense concept-pair matrix in
	// bytes (0 uses semantic.DefaultKernelBudget, 64 MiB). Above the
	// budget the kernel falls back to its sharded memo cache.
	KernelMemoryBudget int64
	// Seed makes the index deterministic.
	Seed int64
	// Parallel shards walk sampling across CPUs.
	Parallel bool
	// MeetIndex additionally builds the inverted (step, node) meeting
	// index, enabling SingleSource queries and collision-driven TopK
	// (cost: one extra pass over the walks plus ~2x walk storage).
	MeetIndex bool
	// LazyWalks selects the lazy walk residency mode in OpenIndexFile:
	// only the v3 block directory is read up front, and walk blocks are
	// decoded on demand into a bounded cache — indexes larger than RAM
	// serve, at the price of a cache probe per query node. Requires a
	// v3-format walk file (see Index.SaveWalksFormat / semsim convert).
	// BuildIndex and LoadIndex ignore it: a freshly sampled index is
	// resident by construction, and a stream has no random access.
	LazyWalks bool
	// WalkCacheBytes caps the decoded bytes the lazy block cache keeps
	// resident (<= 0 uses the walk package default, 64 MiB). Only
	// meaningful with LazyWalks.
	WalkCacheBytes int64
	// Workers sizes the scoring pool used by TopK, SingleSource and
	// BatchQuery. 0 uses runtime.NumCPU(); 1 forces serial scoring.
	Workers int
	// Metrics, when non-nil, attaches the observability layer: build
	// phases, query/top-k/single-source/batch latency histograms,
	// theta-pruning counters, pool gauges and SLING-cache statistics
	// all register into this registry (create one with NewMetrics;
	// read it with Index.Snapshot, Metrics.WriteText or expvar). When
	// nil — the default — every instrument compiles down to a nil
	// no-op: the hot path performs no atomic writes and allocates
	// nothing on its behalf.
	Metrics *Metrics
	// Trace, when non-nil, records BuildIndex's phases (walk sampling,
	// SLING cache init/warm, meet-index pass) as timed spans.
	Trace *Trace
	// WarmCache eagerly precomputes the SLING cache (the paper's
	// offline SLING build) instead of filling it lazily. Requires
	// SLINGCutoff > 0; the warm pass is timed into
	// semsim_build_cache_warm_seconds and the cache-warm trace span.
	WarmCache bool
	// Backend selects the engine backend that answers Query, TopK,
	// SingleSource and BatchQuery (see Backends for the registered
	// names):
	//
	//   - "mc" (the default, also ""): the pruned Monte-Carlo
	//     estimator of Algorithm 1 — approximate, scales to large
	//     graphs;
	//   - "reduced": the materialized G^2_theta of Section 3 — exact
	//     scores for retained pairs (sem > Theta), 0 for dropped ones;
	//   - "linear": the linearized Gauss-Seidel solve (Maehara et
	//     al.'s diagonal-correction formulation folded with the
	//     semantic factor) — exact to solver tolerance (1e-9
	//     residual), small graphs only: it refuses graphs above 4096
	//     nodes.
	//
	// The walk index (and with it SaveWalks/SimRankQuery) is built for
	// every backend; non-mc backends additionally build and query
	// their own structure. Unknown names fail BuildIndex.
	Backend string
	// AutoPlan attaches the adaptive query planner: each TopK call
	// picks its execution strategy (collision-driven, sem-bounded or
	// brute scan) from graph/walk statistics recorded at build time,
	// instead of the static caller-chosen routing. Decisions are
	// counted into Metrics as semsim_plan_total{strategy="..."}.
	// Results are identical across strategies; only the work done per
	// query changes.
	AutoPlan bool
	// ShadowRate, when > 0, attaches the shadow verifier: 1 of every
	// ShadowRate Query calls is re-scored on an exact reference backend
	// by a background worker (off the hot path, bounded queue, dropped
	// when full) and the absolute error is exported through Metrics as
	// semsim_shadow_abs_err / semsim_shadow_drift_total{severity=...} /
	// semsim_shadow_worst_abs_err. Query results are untouched — the
	// verifier observes scores after they are returned. The reference
	// backend is built at BuildIndex time, so enabling shadowing on a
	// large graph pays that backend's construction cost once. Call
	// Index.Close to stop the worker. The conventional production rate
	// is 256 (one query in 256).
	ShadowRate int
	// ShadowBackend names the reference backend the verifier re-scores
	// on ("linear" or "reduced"). It must be exact-capable — a
	// sampling reference would report its own noise as drift — and
	// BuildIndex rejects one that is not. Empty picks "linear", which
	// refuses graphs above 4096 nodes: there BuildIndex (or a Commit
	// that grows the graph past the cap) fails, and the caller either
	// turns shadowing off (ShadowRate 0) or names "reduced" explicitly. If the index's own backend already has
	// that name (and is exact), it is reused instead of building a
	// second copy.
	ShadowBackend string
	// ShadowQueue bounds the verifier's pending-sample queue (0 uses
	// the default, 256). A full queue drops samples, counted in
	// semsim_shadow_dropped_total.
	ShadowQueue int
}

// Backends lists the registered engine backend names, valid values for
// IndexOptions.Backend.
func Backends() []string { return engine.Names() }

// Index answers single-pair and top-k SemSim queries by delegating to a
// pluggable engine backend (IndexOptions.Backend): by default the
// Monte-Carlo estimator of Section 4 — O(n_w * t * d^2) average query
// time, O(n_w * t) with the SLING cache — optionally the exact reduced
// or linear backends. Query routing can further be left to the
// adaptive planner (IndexOptions.AutoPlan).
//
// An Index is safe for concurrent use: any number of goroutines may call
// Query, TopK, SingleSource, BatchQuery, ExplainQuery and SimRankQuery
// on a shared Index, including when the SLING cache is enabled (the
// cache is sharded with striped locks). The parallel results are
// identical to serial ones.
//
// The index is organized as an immutable epoch snapshot behind an
// atomic pointer: every query loads the current snapshot once and runs
// entirely on it, so graph mutations (NewMutator / Commit) never block
// readers and never produce torn reads — a query started before a
// commit finishes with answers bit-identical to the pre-commit epoch.
// Only SaveWalks remains a single-threaded operation with respect to
// commits.
type Index struct {
	snap    atomic.Pointer[snapshot]
	metrics *Metrics
	shadow  *quality.Shadow
	// opts and baseSem are what commits re-assemble successors from:
	// the original build options and the raw (pre-kernel) measure.
	opts    IndexOptions
	baseSem Measure
	// mu serializes Mutator commits; queries never take it. It also
	// guards retired.
	mu sync.Mutex
	// retired collects superseded lazy walk indexes (each holds a
	// reference on the shared walk file) so Close can release the file
	// handle; resident epochs need no release and are not tracked.
	retired []*walk.Index
}

// snapshot is one immutable epoch of the index: every read-only
// structure a query touches — graph, walk index, SLING cache, semantic
// kernel, meet index, planner and engine backend — published together
// behind Index.snap. A commit assembles a full successor off to the
// side and swaps the pointer; the old epoch keeps serving in-flight
// queries until its last reader drops it.
type snapshot struct {
	epoch   uint64
	g       *Graph
	sem     Measure // post-kernel measure this epoch scores with
	walks   *walk.Index
	est     *mc.Estimator
	srmc    *simrank.MC
	cache   *mc.SOCache
	meet    *walk.MeetIndex
	eng     engine.Backend
	planner *engine.Planner
	kernel  *semantic.Kernel
	// refScore re-scores a pair on this epoch's exact-capable reference
	// backend (shadow verification). Built once per epoch so the hot
	// path can hand it to the verifier without allocating; nil when
	// shadowing is off.
	refScore func(u, v NodeID) (float64, error)
}

// BuildIndex samples the reversed-walk index for g and wires up the
// importance-sampling estimator for sem. With opts.Metrics set, each
// phase is timed into the registry; with opts.Trace set, the phases are
// additionally recorded as trace spans.
func BuildIndex(g *Graph, sem Measure, opts IndexOptions) (*Index, error) {
	if opts.C == 0 {
		opts.C = 0.6
	}
	buildLat := opts.Metrics.Histogram("semsim_build_seconds",
		"end-to-end BuildIndex wall time", nil)
	t0 := buildLat.Start()

	sp := opts.Trace.Start("walk-sample")
	ix, err := walk.Build(g, walk.Options{
		NumWalks: opts.NumWalks,
		Length:   opts.WalkLength,
		Seed:     opts.Seed,
		Parallel: opts.Parallel,
		Metrics:  opts.Metrics,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(g, sem, ix, opts)
	if err != nil {
		return nil, err
	}
	buildLat.ObserveSince(t0)
	return idx, nil
}

// newIndex assembles epoch 0 around the sampled walks, wraps it in the
// facade and attaches the shadow verifier (whose worker outlives
// individual epochs — each sample is pinned to the scorer of the epoch
// that produced it).
func newIndex(g *Graph, sem Measure, walks *walk.Index, opts IndexOptions) (*Index, error) {
	snap, err := assemble(g, sem, walks, opts, 0)
	if err != nil {
		return nil, err
	}
	idx := &Index{metrics: opts.Metrics, opts: opts, baseSem: sem}
	if opts.ShadowRate > 0 {
		// Drift severities anchor on the theta envelope (Prop 4.6): an
		// absolute error beyond theta means pruning ate more than its
		// one-sided budget plus the Monte-Carlo noise; beyond 2*theta
		// something is structurally wrong. With pruning off the paper's
		// default theta stands in as the yardstick.
		warn, crit := opts.Theta, 2*opts.Theta
		if opts.Theta == 0 {
			warn, crit = 0.05, 0.1
		}
		idx.shadow = quality.NewShadow(quality.ShadowConfig{
			Rate:          opts.ShadowRate,
			Scorer:        snap.refScore,
			WarnThreshold: warn,
			CritThreshold: crit,
			QueueSize:     opts.ShadowQueue,
			Metrics:       opts.Metrics,
		})
	}
	idx.snap.Store(snap)
	opts.Metrics.Gauge("semsim_mutator_epoch",
		"current index epoch: 0 at build, +1 per committed mutation batch").Set(0)
	return idx, nil
}

// assemble wires the estimator stack (SLING cache, importance-sampling
// estimator, SimRank twin, meet index) around an existing walk index —
// the shared tail of BuildIndex, LoadIndex and Mutator.Commit — into
// one immutable snapshot, with per-phase metrics and trace spans.
func assemble(g *Graph, sem Measure, ix *walk.Index, opts IndexOptions, epoch uint64) (*snapshot, error) {
	var kern *semantic.Kernel
	if wrapKernel(sem, opts.SemanticKernel) {
		sp := opts.Trace.Start("semantic-kernel")
		k, err := semantic.NewKernel(sem, g.NumNodes(), semantic.KernelOptions{
			MemoryBudget: opts.KernelMemoryBudget,
			Workers:      opts.Workers,
			Metrics:      opts.Metrics,
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		kern = k
		sem = k
	}
	var cache *mc.SOCache
	if opts.SLINGCutoff > 0 {
		sp := opts.Trace.Start("sling-cache-init")
		cache = mc.NewSOCache(g, sem, opts.SLINGCutoff)
		sp.End()
		if opts.WarmCache {
			warmLat := opts.Metrics.Histogram("semsim_build_cache_warm_seconds",
				"wall time of the eager SLING cache precomputation", nil)
			sp = opts.Trace.Start("sling-cache-warm")
			tw := warmLat.Start()
			// Prefer the dense triangular SO table (one array read per
			// probe); past its budget, fall back to the parallel striped
			// warm. Both store bit-identical values.
			if !cache.EnableDense(0, opts.Workers) {
				cache.PrecomputeParallel(opts.Workers)
			}
			warmLat.ObserveSince(tw)
			sp.End()
		}
	}
	est, err := mc.New(ix, sem, mc.Options{
		C: opts.C, Theta: opts.Theta, Cache: cache,
		Workers: opts.Workers, Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	srmc, err := simrank.NewMC(ix, opts.C)
	if err != nil {
		return nil, err
	}
	snap := &snapshot{epoch: epoch, g: g, sem: sem, walks: ix,
		est: est, srmc: srmc, cache: cache, kernel: kern}
	if opts.MeetIndex {
		meetLat := opts.Metrics.Histogram("semsim_build_meet_index_seconds",
			"wall time of the inverted meet-index pass", nil)
		sp := opts.Trace.Start("meet-index")
		tm := meetLat.Start()
		snap.meet = walk.BuildMeetIndex(ix)
		meetLat.ObserveSince(tm)
		sp.End()
	}
	if err := snap.finish(opts); err != nil {
		return nil, err
	}
	return snap, nil
}

// finish completes a snapshot whose estimator stack is in place:
// planner statistics, the engine backend and (when shadowing is
// configured) the epoch's reference scorer. Commit reuses it after
// repairing the walk/meet/cache/kernel structures incrementally.
func (snap *snapshot) finish(opts IndexOptions) error {
	if opts.AutoPlan {
		st := engine.CollectStats(snap.g, snap.walks, snap.meet)
		st.DenseSemKernel = snap.kernel != nil && snap.kernel.DenseMode()
		// The linear strategy is only routable when the backend that
		// owns the solved score matrix is the one answering queries.
		st.LinearSolved = opts.Backend == "linear"
		snap.planner = engine.NewPlanner(st, opts.Metrics)
	}
	backendLat := opts.Metrics.Histogram("semsim_build_backend_seconds",
		"wall time of the engine-backend construction (fixpoint solves for reduced/linear)", nil)
	sp := opts.Trace.Start("engine-backend")
	tb := backendLat.Start()
	eng, err := engine.New(opts.Backend, engine.Config{
		Graph: snap.g, Sem: snap.sem, C: opts.C, Theta: opts.Theta,
		Estimator: snap.est, Walks: snap.walks, Meet: snap.meet, Cache: snap.cache,
		Workers: opts.Workers, Metrics: opts.Metrics, Planner: snap.planner,
	})
	backendLat.ObserveSince(tb)
	sp.End()
	if err != nil {
		return err
	}
	snap.eng = eng
	if opts.ShadowRate > 0 {
		return snap.buildShadowRef(opts)
	}
	return nil
}

// buildShadowRef builds (or reuses) the exact-capable reference backend
// this epoch's shadow samples are verified against. snap.sem is the
// post-kernel measure, so the reference scores against bit-identical
// semantics.
func (snap *snapshot) buildShadowRef(opts IndexOptions) error {
	name := opts.ShadowBackend
	if name == "" {
		name = "linear"
	}
	ref := snap.eng
	if ref.Name() != name || !ref.Caps().Exact {
		shadowLat := opts.Metrics.Histogram("semsim_build_shadow_backend_seconds",
			"wall time of the shadow reference-backend construction", nil)
		sp := opts.Trace.Start("shadow-backend")
		ts := shadowLat.Start()
		var err error
		ref, err = engine.New(name, engine.Config{
			Graph: snap.g, Sem: snap.sem, C: opts.C, Theta: opts.Theta,
			Estimator: snap.est, Walks: snap.walks, Meet: snap.meet, Cache: snap.cache,
			Workers: opts.Workers,
		})
		shadowLat.ObserveSince(ts)
		sp.End()
		if err != nil {
			if opts.ShadowBackend == "" {
				return fmt.Errorf("semsim: default shadow reference: %w (disable shadowing with ShadowRate 0 / -shadow-rate 0, or name ShadowBackend \"reduced\" / -shadow-backend reduced)", err)
			}
			return err
		}
	}
	if !ref.Caps().Exact {
		return fmt.Errorf("semsim: shadow backend %q is not exact-capable; drift against a sampling reference would measure its noise, not ours", name)
	}
	snap.refScore = func(u, v NodeID) (float64, error) { return ref.Query(u, v, nil) }
	return nil
}

// wrapKernel decides whether assemble wraps the measure in a
// semantic.Kernel, per IndexOptions.SemanticKernel.
func wrapKernel(sem Measure, mode string) bool {
	switch mode {
	case "off":
		return false
	case "on":
		_, already := sem.(*semantic.Kernel)
		return !already
	default: // "" / "auto": only the stock immutable measures
		switch sem.(type) {
		case semantic.Lin, semantic.Resnik, semantic.WuPalmer,
			semantic.JiangConrath, semantic.Path, semantic.Uniform:
			return true
		}
		return false
	}
}

// Backend reports the engine backend name the index delegates to.
func (ix *Index) Backend() string { return ix.snap.Load().eng.Name() }

// Graph returns the graph of the current epoch. After a Commit the
// returned graph is the mutated one; graphs are immutable, so holding an
// older epoch's graph stays valid.
func (ix *Index) Graph() *Graph { return ix.snap.Load().g }

// Sem returns the measure the current epoch scores with — the semantic
// kernel when one is attached, otherwise the raw measure.
func (ix *Index) Sem() Measure { return ix.snap.Load().sem }

// Epoch reports the current snapshot's epoch: 0 at build, +1 per
// committed mutation batch.
func (ix *Index) Epoch() uint64 { return ix.snap.Load().epoch }

// KernelMode reports the semantic kernel's storage mode — "dense" or
// "memo" — or "" when no kernel is attached (SemanticKernel "off", or
// "auto" with a custom measure).
func (ix *Index) KernelMode() string {
	s := ix.snap.Load()
	if s.kernel == nil {
		return ""
	}
	return s.kernel.Mode()
}

// Query estimates the SemSim score of (u,v) in [0,1] via the selected
// backend. Node IDs are bounds-checked: an id outside the graph scores
// 0 instead of indexing walk storage unchecked.
func (ix *Index) Query(u, v NodeID) float64 { return ix.QueryCost(u, v, nil) }

// QueryCost is Query additionally charging the work performed to co
// (see Cost): on the mc backend walk steps scanned, SO-cache
// hits/misses, kernel probes and lazy walk-block decodes; on the linear
// and reduced backends one pair per score read. Scores are
// bit-identical to Query, and a nil co disables the accounting.
func (ix *Index) QueryCost(u, v NodeID, co *Cost) float64 {
	s := ix.snap.Load()
	score, err := s.eng.Query(u, v, co)
	if err != nil {
		return 0
	}
	// The sample carries this epoch's reference scorer, so a commit
	// racing with the verification can't compare estimates against a
	// different graph's truth.
	ix.shadow.OfferWith(u, v, score, s.refScore)
	return score
}

// ExplainQuery answers Query(u, v) together with the evidence behind
// the estimate: sample counts, per-step meeting histogram, empirical
// variance, the 95% confidence interval, theta-pruning accounting and
// cache/kernel provenance. Explanation.Score is bit-identical to what
// Query returns on the same index — explaining observes the estimator,
// it never perturbs it. An out-of-range node returns an error wrapping
// ErrNodeOutOfRange.
func (ix *Index) ExplainQuery(u, v NodeID) (*Explanation, error) {
	return ix.snap.Load().eng.Explain(u, v)
}

// Close releases the index's background machinery: the shadow
// verifier's worker (draining any queued verifications) and, for an
// index opened with LazyWalks, the walk file handle shared by every
// epoch's walk index. An index built without either has nothing to
// release; Close is then a no-op. Close the index at most once, after
// all in-flight queries finish.
func (ix *Index) Close() {
	if ix.shadow != nil {
		ix.shadow.Close()
		ix.shadow = nil
	}
	ix.mu.Lock()
	retired := ix.retired
	ix.retired = nil
	ix.mu.Unlock()
	for _, w := range retired {
		w.Close()
	}
	ix.snap.Load().walks.Close()
}

// PlanStrategy reports the execution strategy the adaptive planner
// would route a TopK query to ("brute", "sem-bounded" or "collision"),
// without recording a planning decision — introspection for wide-event
// query logs. Returns "" when the index was built without AutoPlan (the
// static routing applies).
func (ix *Index) PlanStrategy(k int) string {
	s := ix.snap.Load()
	if s.planner == nil {
		return ""
	}
	return s.planner.Peek().String()
}

// TopK returns the k nodes most similar to u, descending. With
// IndexOptions.AutoPlan the execution strategy (collision-driven,
// sem-bounded or brute scan) is chosen per query by the adaptive
// planner; otherwise the historical static routing applies — the
// collision path when a meet index exists (IndexOptions.MeetIndex), the
// brute scan otherwise. All strategies return the identical result set.
// An out-of-range u returns nil.
func (ix *Index) TopK(u NodeID, k int) []Scored { return ix.TopKCost(u, k, nil) }

// TopKCost is TopK additionally charging the scan's work to co (see
// Cost). Results are identical to TopK; a nil co disables the
// accounting.
func (ix *Index) TopKCost(u NodeID, k int, co *Cost) []Scored {
	out, err := ix.snap.Load().eng.TopK(u, k, co)
	if err != nil {
		return nil
	}
	return out
}

// SingleSource estimates sim(u, v) for every v with a nonzero estimate
// (ascending node order, zeros omitted). The default mc backend requires
// IndexOptions.MeetIndex; the reduced and linear backends enumerate
// natively.
func (ix *Index) SingleSource(u NodeID) ([]Scored, error) {
	s := ix.snap.Load()
	if !s.eng.Caps().HasSingleSource {
		return nil, errNoMeetIndex
	}
	return s.eng.SingleSource(u, nil)
}

// BatchQuery evaluates many pairs concurrently over the selected
// backend. Every pair is bounds-checked against the graph before any
// scoring starts; a malformed pair fails the whole batch with an error
// naming it. On the mc backend all workers share the index's estimator
// and SO cache, so batches warm the cache for subsequent queries.
// workers <= 0 uses the configured pool size (IndexOptions.Workers,
// defaulting to NumCPU). Results align positionally with pairs and
// match a serial Query loop exactly.
func (ix *Index) BatchQuery(pairs [][2]NodeID, workers int) ([]float64, error) {
	return ix.snap.Load().eng.QueryBatch(pairs, workers)
}

// SimRankQuery estimates the plain SimRank score on the same walk index
// (the Fogaras–Rácz estimator) — useful for side-by-side comparisons.
func (ix *Index) SimRankQuery(u, v NodeID) float64 { return ix.snap.Load().srmc.Query(u, v) }

// CacheSummary aggregates the SLING cache's hit/miss counters, derived
// hit ratio and entry count in one coherent pass (the zero value when
// the cache is disabled). The counters are atomic, so the snapshot is
// safe to take while queries are in flight.
func (ix *Index) CacheSummary() CacheSummary {
	s := ix.snap.Load()
	if s.cache == nil {
		return CacheSummary{}
	}
	return s.cache.Summary()
}

// Snapshot copies every metric the index has recorded — counters,
// gauges (including the live SLING-cache statistics) and histogram
// snapshots with p50/p95/p99 — as one JSON-marshalable value. It is
// safe to call while queries are in flight. When the index was built
// without IndexOptions.Metrics the snapshot is empty but non-nil.
func (ix *Index) Snapshot() MetricsSnapshot {
	return ix.metrics.Snapshot()
}

// Metrics returns the registry the index was built with, or nil when
// observability is disabled — hand it to an HTTP handler for /metrics
// text exposition (Metrics.WriteText) or publish it via expvar.
func (ix *Index) Metrics() *Metrics {
	return ix.metrics
}

// SaveWalks persists the precomputed walk index in the current default
// on-disk format (v3, compressed blocks); LoadIndex and OpenIndexFile
// restore it without resampling (the dominant preprocessing cost).
func (ix *Index) SaveWalks(w io.Writer) error {
	_, err := ix.snap.Load().walks.WriteTo(w)
	return err
}

// WalkFormats lists the walk-file format names SaveWalksFormat and
// ConvertWalks accept.
func WalkFormats() []string { return []string{"v2", "v3"} }

// walkFormatVersion maps a CLI-facing format name to the walk package's
// version number. "" picks the current default.
func walkFormatVersion(format string) (int, error) {
	switch format {
	case "v2":
		return walk.FormatV2, nil
	case "", "v3":
		return walk.FormatV3, nil
	}
	return 0, fmt.Errorf("semsim: unknown walk format %q (have: v2, v3)", format)
}

// SaveWalksFormat persists the walk index in an explicit format: "v2"
// is the legacy flat layout (readable by older builds), "v3" (or "")
// the compressed block layout — typically 2.5-4x smaller and the only
// format LazyWalks can open.
func (ix *Index) SaveWalksFormat(w io.Writer, format string) error {
	v, err := walkFormatVersion(format)
	if err != nil {
		return err
	}
	_, err = ix.snap.Load().walks.WriteToFormat(w, v)
	return err
}

// ConvertWalks re-encodes a saved walk index between on-disk formats
// ("v2" flat, "v3" compressed blocks) without rebuilding the walks. The
// graph the walks were sampled for is required: v3 compresses steps
// against its in-neighbor lists, and the source file's fingerprint is
// verified against it. Returns the bytes written.
func ConvertWalks(r io.Reader, g *Graph, w io.Writer, format string) (int64, error) {
	v, err := walkFormatVersion(format)
	if err != nil {
		return 0, err
	}
	walks, err := walk.Load(r, g)
	if err != nil {
		return 0, err
	}
	return walks.WriteToFormat(w, v)
}

// WalkCacheResidentBytes reports the decoded bytes currently resident
// in the lazy walk-block cache (0 for a resident index) — the live
// value behind the semsim_walk_cache_resident_bytes gauge.
func (ix *Index) WalkCacheResidentBytes() int64 {
	return ix.snap.Load().walks.CacheResidentBytes()
}

// LazyWalks reports whether the current epoch serves walks lazily from
// a v3 walk file (OpenIndexFile with IndexOptions.LazyWalks).
func (ix *Index) LazyWalks() bool {
	return ix.snap.Load().walks.Lazy()
}

// DecodeErrors reports how many lazy walk-block decodes have failed
// since open (0 for a resident index). Nonzero means some queries were
// answered from degraded (stopped) walks for the affected nodes.
func (ix *Index) DecodeErrors() int64 {
	return ix.snap.Load().walks.DecodeErrors()
}

// LoadIndex rebuilds an Index from walks previously saved with SaveWalks,
// for the same graph. All other options behave as in BuildIndex (the
// walk-sampling options are taken from the stored index).
func LoadIndex(r io.Reader, g *Graph, sem Measure, opts IndexOptions) (*Index, error) {
	if opts.C == 0 {
		opts.C = 0.6
	}
	buildLat := opts.Metrics.Histogram("semsim_build_seconds",
		"end-to-end BuildIndex wall time", nil)
	t0 := buildLat.Start()
	sp := opts.Trace.Start("load-walks")
	walks, err := walk.Load(r, g)
	sp.End()
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(g, sem, walks, opts)
	if err != nil {
		return nil, err
	}
	buildLat.ObserveSince(t0)
	return idx, nil
}

// OpenIndexFile rebuilds an Index from a walk file previously saved
// with SaveWalks, choosing the residency mode from opts: with LazyWalks
// the file's block directory is mapped and walk blocks decode on demand
// into a cache capped at WalkCacheBytes — indexes larger than RAM serve
// — otherwise the file is fully loaded as LoadIndex would. Lazy opening
// requires the v3 format (`semsim convert` upgrades older files). Call
// Index.Close when done: it releases the walk file handle.
func OpenIndexFile(path string, g *Graph, sem Measure, opts IndexOptions) (*Index, error) {
	if !opts.LazyWalks {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return LoadIndex(f, g, sem, opts)
	}
	if opts.C == 0 {
		opts.C = 0.6
	}
	buildLat := opts.Metrics.Histogram("semsim_build_seconds",
		"end-to-end BuildIndex wall time", nil)
	t0 := buildLat.Start()
	sp := opts.Trace.Start("open-walks-lazy")
	walks, err := walk.OpenLazyFile(path, g, walk.LazyOptions{
		CacheBytes: opts.WalkCacheBytes,
		Metrics:    opts.Metrics,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(g, sem, walks, opts)
	if err != nil {
		walks.Close()
		return nil, err
	}
	buildLat.ObserveSince(t0)
	return idx, nil
}

// MemoryBytes reports the walk-index storage plus the SLING cache and
// meet index, the quantities of the paper's preprocessing report. A
// non-mc backend additionally reports its own prepared structure (the
// reduced pair graph, the linear score matrix).
func (ix *Index) MemoryBytes() int64 {
	s := ix.snap.Load()
	m := s.walks.MemoryBytes()
	if s.cache != nil {
		m += s.cache.MemoryBytes()
	}
	if s.kernel != nil {
		m += s.kernel.MemoryBytes()
	}
	if s.meet != nil {
		m += s.meet.MemoryBytes()
	}
	if s.eng != nil && s.eng.Name() != "mc" {
		m += s.eng.MemoryBytes()
	}
	return m
}

// ReducedOptions configure the G^2_theta reduction of Definition 3.4.
type ReducedOptions = pairgraph.ReduceOptions

// ReducedGraph is the materialized G^2_theta: only node pairs with
// sem > theta, with omitted walks folded into bypass edges and a drain.
// Scores of retained pairs equal full-G^2 SemSim scores (Theorem 3.5).
type ReducedGraph struct {
	red *pairgraph.Reduced
}

// BuildReduced materializes G^2_theta and solves it to its fixpoint.
func BuildReduced(g *Graph, sem Measure, opts ReducedOptions) (*ReducedGraph, error) {
	red, err := pairgraph.Reduce(g, sem, opts)
	if err != nil {
		return nil, err
	}
	if err := red.Solve(100, 1e-10); err != nil {
		return nil, err
	}
	return &ReducedGraph{red: red}, nil
}

// Score returns s_theta(u,v): the exact SemSim score for retained pairs,
// 0 for dropped ones.
func (r *ReducedGraph) Score(u, v NodeID) float64 { return r.red.Score(u, v) }

// Contains reports whether (u,v) was retained (sem > theta).
func (r *ReducedGraph) Contains(u, v NodeID) bool { return r.red.Contains(u, v) }

// NumPairs reports the retained canonical pair count.
func (r *ReducedGraph) NumPairs() int { return r.red.NumPairs() }

// ScoredPair is one similarity-join result.
type ScoredPair = pairgraph.ScoredPair

// SimilarityJoin finds every distinct pair with SemSim score >= minScore,
// descending: Proposition 2.5 (sim <= sem) makes G^2_theta with
// theta < minScore a complete index for the join. opts.Theta defaults to
// minScore/2 when unset.
func SimilarityJoin(g *Graph, sem Measure, minScore float64, opts ReducedOptions) ([]ScoredPair, error) {
	if opts.Theta == 0 {
		opts.Theta = minScore / 2
	}
	red, err := BuildReduced(g, sem, opts)
	if err != nil {
		return nil, err
	}
	return red.red.PairsAbove(minScore)
}
