package engine

import (
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/obs"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// Config carries everything a backend factory may need. Each backend
// reads the subset it understands; the shared fields (Graph, Sem, C,
// Theta) are filled by New with the paper's defaults when zero.
type Config struct {
	// Graph is the HIN every backend scores over. Required.
	Graph *hin.Graph
	// Sem is the admissible semantic measure. Required.
	Sem semantic.Measure
	// C is the decay factor (default 0.6).
	C float64
	// Theta is the pruning threshold shared by the mc backend (walk
	// capping) and the reduced backend (pair retention). 0 disables
	// pruning for mc; the reduced backend then falls back to
	// DefaultReduceTheta (a reduction needs a threshold to exist).
	Theta float64

	// Estimator, when non-nil, is the prepared Monte-Carlo estimator
	// the "mc" backend wraps — the facade passes the one it already
	// assembled (with SLING cache and metrics wired) so the engine and
	// the compatibility shims share identical state. When nil, the mc
	// factory builds one from Walks.
	Estimator *mc.Estimator
	// Walks is the precomputed reversed-walk index ("mc" substrate;
	// required by the mc backend when Estimator is nil).
	Walks *walk.Index
	// Meet is the optional inverted meeting index enabling the mc
	// backend's single-source enumeration and collision-driven top-k.
	Meet *walk.MeetIndex
	// Cache is the optional SLING SO-cache handed to a factory-built
	// estimator (ignored when Estimator is set — it already has one).
	Cache *mc.SOCache
	// Workers sizes factory-built estimators' scoring pools.
	Workers int
	// Metrics receives backend instrumentation and planner counters.
	// Nil disables at zero cost (see internal/obs).
	Metrics *obs.Registry
	// Planner, when non-nil, picks the top-k strategy per query for
	// backends that support strategy selection; nil keeps the static
	// caller-chosen default (meet index if present, else brute scan).
	Planner *Planner
}
