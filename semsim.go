// Package semsim implements SemSim — "Boosting SimRank with Semantics"
// (Milo, Somech, Youngmann; EDBT 2019) — a similarity measure for
// heterogeneous information networks that refines SimRank by weighting
// structural similarity with edge weights and a pluggable semantic
// measure, together with the full computation framework of the paper:
//
//   - the iterative all-pairs fixpoint (Section 2),
//   - the semantic-aware random-surfer model on the node-pair graph G^2
//     and its threshold reduction G^2_theta (Section 3),
//   - the importance-sampling Monte-Carlo estimator with pruning and a
//     SLING-style normalization cache (Section 4),
//   - the SimRank baseline family and the quality-evaluation competitors
//     (Panther, PathSim, LINE, Relatedness) used in Section 5.
//
// # Quick start
//
//	b := semsim.NewGraphBuilder()
//	alice := b.AddNode("alice", "author")
//	bob := b.AddNode("bob", "author")
//	ai := b.AddNode("AI", "field")
//	b.AddUndirected(alice, bob, "co-author", 3)
//	b.AddEdge(alice, ai, "is-a", 1)
//	g, err := b.Build()
//	...
//	tax, err := semsim.BuildTaxonomy(g, semsim.TaxonomyOptions{})
//	idx, err := semsim.BuildIndex(g, semsim.NewLin(tax), semsim.IndexOptions{})
//	score := idx.Query(alice, bob)
//
// The internal packages expose the individual subsystems; this package is
// the stable, documented surface intended for downstream use.
//
// # Concurrency
//
// A built Index is safe for concurrent use: any number of goroutines may
// share one Index for Query, TopK, SingleSource, BatchQuery,
// ExplainQuery and SimRankQuery, including with the SLING cache enabled
// (it is sharded with striped locks and atomic statistics). Parallel
// results are identical to serial ones. Construction (BuildIndex,
// LoadIndex, BuildTaxonomy, graph building) is single-threaded; treat
// those as per-goroutine operations. IndexOptions.Workers sizes the
// internal scoring pool used by TopK, SingleSource and BatchQuery.
package semsim

import (
	"io"

	"semsim/internal/core"
	"semsim/internal/engine"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/obs"
	"semsim/internal/obs/quality"
	"semsim/internal/semantic"
	"semsim/internal/simmat"
	"semsim/internal/simrank"
	"semsim/internal/taxonomy"
)

// NodeID identifies a vertex in a Graph (dense, insertion-ordered).
type NodeID = hin.NodeID

// Graph is an immutable heterogeneous information network
// (Definition 2.1): directed, vertex- and edge-labeled, with strictly
// positive edge weights.
type Graph = hin.Graph

// GraphBuilder accumulates nodes and edges into an immutable Graph.
type GraphBuilder = hin.Builder

// Edge is one directed, labeled, weighted edge.
type Edge = hin.Edge

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder { return hin.NewBuilder() }

// ReadGraph parses the line-oriented text format produced by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return hin.Read(r) }

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return hin.Write(w, g) }

// Taxonomy is the "is-a" concept hierarchy with information-content
// values and O(1) lowest-common-ancestor queries.
type Taxonomy = taxonomy.Taxonomy

// TaxonomyOptions configure taxonomy construction.
type TaxonomyOptions = taxonomy.Options

// BuildTaxonomy extracts the taxonomy of g from its hypernym edges
// (default label "is-a") and computes Seco-style IC values in (0,1].
func BuildTaxonomy(g *Graph, opts TaxonomyOptions) (*Taxonomy, error) {
	return taxonomy.FromGraph(g, opts)
}

// Measure is a pluggable semantic similarity: any function satisfying the
// paper's three admissibility constraints (symmetry, unit self-similarity,
// range (0,1]) can be injected into SemSim.
type Measure = semantic.Measure

// NewLin returns the Lin information-content measure over tax, the
// measure used throughout the paper's experiments.
func NewLin(tax *Taxonomy) Measure { return semantic.Lin{Tax: tax} }

// NewResnik returns the Resnik IC measure (IC of the LCA).
func NewResnik(tax *Taxonomy) Measure { return semantic.Resnik{Tax: tax} }

// NewWuPalmer returns the Wu–Palmer depth measure.
func NewWuPalmer(tax *Taxonomy) Measure { return semantic.WuPalmer{Tax: tax} }

// NewPathMeasure returns the Rada edge-counting measure 1/(1+dist).
func NewPathMeasure(tax *Taxonomy) Measure { return semantic.Path{Tax: tax} }

// NewJiangConrath returns the Jiang–Conrath IC-distance measure.
func NewJiangConrath(tax *Taxonomy) Measure { return semantic.JiangConrath{Tax: tax} }

// UniformMeasure assigns sem = 1 everywhere; SemSim with it (and unit
// weights) degenerates to exactly SimRank.
func UniformMeasure() Measure { return semantic.Uniform{} }

// ValidateMeasure property-checks the three admissibility constraints on
// random node pairs; see semantic.Validate.
var ValidateMeasure = semantic.Validate

// ScoreMatrix is a dense symmetric all-pairs similarity matrix.
type ScoreMatrix = simmat.Matrix

// ExactOptions configure the iterative fixpoint computation.
type ExactOptions = core.IterOptions

// ExactResult carries the converged matrix and per-iteration deltas.
type ExactResult = core.Result

// Exact computes all-pairs SemSim by iterating Equation 3 to its fixpoint
// — the ground-truth (O(k d^2 n^2)) computation of Section 2.3.
func Exact(g *Graph, sem Measure, opts ExactOptions) (*ExactResult, error) {
	return core.Iterative(g, sem, opts)
}

// DecayUpperBound returns min(min N(u,v), 1): Theorem 2.3(5) guarantees a
// unique SemSim solution for any decay factor strictly below it.
// maxPairs > 0 samples instead of scanning all pairs.
func DecayUpperBound(g *Graph, sem Measure, maxPairs int) float64 {
	return core.DecayUpperBound(g, sem, maxPairs)
}

// SimRankOptions configure the baseline SimRank computations.
type SimRankOptions = simrank.IterOptions

// SimRankResult carries SimRank's converged matrix and deltas.
type SimRankResult = simrank.Result

// SimRank computes all-pairs SimRank (Jeh–Widom) — the structural
// baseline SemSim refines.
func SimRank(g *Graph, opts SimRankOptions) (*SimRankResult, error) {
	return simrank.Iterative(g, opts)
}

// SimRankPlusPlus computes all-pairs SimRank++ (weighted, with evidence).
func SimRankPlusPlus(g *Graph, opts SimRankOptions) (*SimRankResult, error) {
	return simrank.PlusPlus(g, opts)
}

// PRankOptions configure the P-Rank baseline.
type PRankOptions = simrank.PRankOptions

// PRank computes all-pairs P-Rank (in- and out-link evidence).
func PRank(g *Graph, opts PRankOptions) (*SimRankResult, error) {
	return simrank.PRank(g, opts)
}

// Metrics is the engine's observability registry (see internal/obs):
// lock-free counters, gauges and fixed-bucket latency histograms that
// the index's hot paths record into when IndexOptions.Metrics is set.
// Export it with Snapshot (structured), WriteText (Prometheus text
// exposition for a /metrics endpoint) or PublishExpvar (/debug/vars).
// A nil *Metrics disables all instrumentation at zero cost.
type Metrics = obs.Registry

// NewMetrics returns an empty registry to pass as IndexOptions.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsSnapshot is a point-in-time, JSON-marshalable copy of every
// instrument (Index.Snapshot / Metrics.Snapshot).
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is one histogram's snapshot: count, sum, cumulative
// buckets and interpolated p50/p95/p99.
type HistogramSnapshot = obs.HistogramSnapshot

// Trace records named timed spans for one operation — pass it as
// IndexOptions.Trace for a per-phase build breakdown, or wrap your own
// phases with Trace.Start/Span.End; String renders the aligned report.
// A nil *Trace ignores all calls.
type Trace = obs.Trace

// TraceSpan is one finished trace span (name, start offset, duration).
type TraceSpan = obs.SpanRecord

// NewTrace starts an empty trace.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// CacheSummary is the SLING SO-cache's coherent statistics snapshot:
// hits, misses, the derived hit ratio and stored entries
// (Index.CacheSummary).
type CacheSummary = mc.CacheSummary

// Cost is a per-query work accumulator (see internal/obs): pass a
// pointer to Index.QueryCost / Index.TopKCost and the query path counts
// the pairs scored, walk steps scanned, SO-cache hits/misses, kernel
// probes, lazy block-cache traffic and pruning events it spent
// answering (the linear and reduced backends count pairs read). Plain
// field bumps on the caller's struct — zero allocation, no atomics; a
// nil *Cost disables accounting. The struct is JSON-marshalable as-is
// (the shape embedded in /explain, the query log and the flight
// recorder).
type Cost = obs.Cost

// Explanation is the per-query evidence record returned by
// Index.ExplainQuery: walk samples used, per-step meeting counts,
// empirical variance with a 95% CLT confidence interval on the
// estimate, theta-pruning accounting and cache/kernel provenance. It is
// JSON-marshalable as-is (the shape served at /explain by semsim
// serve). See internal/obs/quality for field semantics.
type Explanation = quality.Explanation

// ErrNodeOutOfRange is wrapped by every bounds-validation error from
// index entry points that return errors (BatchQuery, SingleSource,
// ExplainQuery): errors.Is(err, ErrNodeOutOfRange) distinguishes an
// unknown-node request (HTTP 404 territory) from an internal failure.
var ErrNodeOutOfRange = engine.ErrNodeOutOfRange
