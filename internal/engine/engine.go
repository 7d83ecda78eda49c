// Package engine is the pluggable computation layer behind the public
// semsim.Index: one Backend interface over three ways of computing the
// same SemSim scores — the pruned importance-sampling Monte-Carlo
// estimator of Section 4 (backend "mc"), the materialized G^2_theta
// reduction of Section 3 (backend "reduced", exact scores for retained
// pairs), and the Gauss-Seidel linearized solve in the style of Maehara
// et al. (backend "linear", exact up to a residual budget, graphs of at
// most DefaultMaxLinearNodes nodes) — plus the adaptive query Planner
// that picks a top-k execution strategy per query from recorded
// graph/walk statistics (planner.go).
//
// Every query shape has exactly one entry point on Backend: Query,
// TopK and SingleSource take an optional *obs.Cost (nil means off),
// QueryBatch scores many pairs, and Explain returns the score with its
// evidence. Callers never type-assert for optional interfaces. The mc
// backend routes TopK through the planner (or its static default);
// linear and reduced share one implementation of every shape over a
// per-backend score lookup (scoreTable), keeping only their
// construction, capabilities and backend-specific Explain fields.
//
// Backends register themselves by name in an init-time registry
// (Register/New/Names), so future computation strategies —
// ProbeSim-style dynamic probing, remote shards — plug in without
// touching the public API: semsim.IndexOptions.Backend selects the
// implementation.
//
// All backends are validated by the differential conformance harness
// (internal/engine/conformance): every registered backend is driven
// through randomized graph and taxonomy generators, pairwise agreement
// against the iterative fixpoint of Section 2.3 (core.Iterative, the
// oracle) with per-backend tolerance bands, paper invariants,
// capability/bounds/cost contracts and hand-verified golden fixtures. A new backend gets the whole suite
// by registering — conformance discovers backends through Names().
package engine

import (
	"fmt"
	"sort"
	"sync"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/obs/quality"
	"semsim/internal/rank"
)

// Capabilities describe what a backend can do beyond the mandatory
// query shapes, letting callers (and the public facade) route requests
// without type-switching on concrete backends.
type Capabilities struct {
	// HasSingleSource reports that SingleSource is supported (the mc
	// backend needs the inverted meet index for it; the reduced and
	// linear backends enumerate natively).
	HasSingleSource bool
	// Exact reports that returned scores are exact fixpoint values
	// rather than Monte-Carlo estimates. The reduced backend is exact
	// for retained pairs (Theorem 3.5); dropped pairs score 0.
	Exact bool
	// Prunes reports that the backend drops pairs whose semantic
	// similarity is at or below theta. Dropped pairs score 0 and the
	// loss propagates one-sidedly into retained scores, bounded by
	// theta (Prop 4.6) — the conformance harness widens its lower
	// agreement band accordingly.
	Prunes bool
}

// Backend answers the SemSim query shapes over one prepared data
// structure. It is the only interface a backend implements: every shape
// has one entry point, and every entry point that scores takes a cost
// accumulator (nil disables accounting; scores are bit-identical either
// way). Implementations must be safe for concurrent use and must
// validate node IDs on every entry point: a malformed ID returns an
// error instead of indexing internal storage unchecked.
type Backend interface {
	// Name is the registry name the backend was constructed under.
	Name() string
	// Caps reports the backend's capability flags.
	Caps() Capabilities
	// Query estimates sim(u,v) in [0,1], charging the work to co.
	Query(u, v hin.NodeID, co *obs.Cost) (float64, error)
	// TopK returns the k nodes most similar to u, descending score
	// (ties by ascending node id), zero scores omitted, charging the
	// work to co.
	TopK(u hin.NodeID, k int, co *obs.Cost) ([]rank.Scored, error)
	// SingleSource returns sim(u,v) for every v with a nonzero
	// estimate, ascending node order, charging the work to co.
	// Backends without the capability return ErrNoSingleSource.
	SingleSource(u hin.NodeID, co *obs.Cost) ([]rank.Scored, error)
	// QueryBatch evaluates many pairs, positionally aligned with the
	// input. Every pair is bounds-checked before any scoring starts.
	// workers <= 0 uses the backend's configured parallelism.
	QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error)
	// Explain answers Query(u, v) together with the evidence behind
	// the score (walk samples, variance and confidence interval for
	// sampling backends; a degenerate interval for exact ones) and the
	// work charged to Explanation.Cost. Explanation.Score is
	// bit-identical to Query.
	Explain(u, v hin.NodeID) (*quality.Explanation, error)
	// MemoryBytes reports the storage of the backend's prepared
	// structures (the quantities of the paper's preprocessing report).
	MemoryBytes() int64
}

// ErrNoSingleSource is returned by backends that cannot enumerate
// single-source results (the mc backend without a meet index).
var ErrNoSingleSource = fmt.Errorf("engine: backend does not support single-source queries")

// Factory builds a backend from a Config. Factories must not retain the
// Config beyond construction.
type Factory func(cfg Config) (Backend, error)

// DefaultBackend is the name New resolves an empty backend name to.
const DefaultBackend = "mc"

var (
	regMu     sync.RWMutex
	factories = make(map[string]Factory)
)

// Register adds a backend factory under name. It panics on a duplicate
// name: backend names are part of the public configuration surface and
// silently replacing one is a wiring bug.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic("engine: duplicate backend registration " + name)
	}
	factories[name] = f
}

// Names lists the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs the named backend ("" selects DefaultBackend). Unknown
// names list the registered alternatives in the error.
func New(name string, cfg Config) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (registered: %v)", name, Names())
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("engine: Config.Graph is required")
	}
	if cfg.Sem == nil {
		return nil, fmt.Errorf("engine: Config.Sem is required")
	}
	if cfg.C == 0 {
		cfg.C = 0.6
	}
	return f(cfg)
}

// ErrNodeOutOfRange is the sentinel wrapped by every bounds-validation
// failure, letting callers (the HTTP server's 404 mapping) distinguish
// "unknown node" from other errors with errors.Is instead of matching
// message text.
var ErrNodeOutOfRange = fmt.Errorf("node id out of range")

// CheckNode validates that u indexes a node of g. All backend entry
// points run it before touching walk or matrix storage: the walk index
// slices by node id unchecked, so an out-of-range id from an untrusted
// caller would otherwise panic deep inside the scoring loop.
func CheckNode(g *hin.Graph, u hin.NodeID) error {
	if int(u) < 0 || int(u) >= g.NumNodes() {
		return fmt.Errorf("engine: %w: %d not in [0,%d)", ErrNodeOutOfRange, u, g.NumNodes())
	}
	return nil
}

// CheckPair validates both ends of a query pair.
func CheckPair(g *hin.Graph, u, v hin.NodeID) error {
	if err := CheckNode(g, u); err != nil {
		return err
	}
	return CheckNode(g, v)
}

// CheckPairs validates a batch before any scoring starts, so a bad pair
// fails the whole batch up front instead of panicking mid-flight on a
// worker goroutine.
func CheckPairs(g *hin.Graph, pairs [][2]hin.NodeID) error {
	for i, p := range pairs {
		if err := CheckPair(g, p[0], p[1]); err != nil {
			return fmt.Errorf("engine: pair %d: %w", i, err)
		}
	}
	return nil
}
