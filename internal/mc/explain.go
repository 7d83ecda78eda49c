package mc

import (
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs/quality"
	"semsim/internal/semantic"
)

// Explain evaluates sim(u,v) exactly like Query while recording the
// evidence behind the estimate: per-step meeting counts, the empirical
// variance and CLT confidence interval over the n_w per-walk
// contributions, theta-pruning accounting and cache/kernel provenance.
//
// The contract is observe-don't-perturb: Explain runs Query's own
// meet/score loop with an evidence accumulator attached, so
// Explanation.Score is bit-identical to Query(u, v) on the same index,
// and the shared pruning counters (sem-skips, walk caps, walks coupled)
// advance exactly as a plain query would advance them. The work is
// charged to Explanation.Cost.
func (e *Estimator) Explain(u, v hin.NodeID) *quality.Explanation {
	t0 := time.Now()
	ex := &quality.Explanation{
		U:            int(u),
		V:            int(v),
		Backend:      "mc",
		Theta:        e.theta,
		CIConfidence: quality.Confidence,
		SOCacheMode:  e.cacheMode(),
		KernelMode:   e.kernelMode(),
	}
	var ev evidence
	ex.Score = e.query(u, v, &ex.Cost, &ev)
	switch {
	case u == v:
		// sim(u,u) = 1 by definition — no sampling involved, so the
		// interval is degenerate.
		ex.Sem, ex.Mean, ex.CILow, ex.CIHigh = 1, 1, 1, 1
	case ev.semSkipped:
		// Algorithm 1 lines 2-3: the whole pair is pruned. The estimate
		// carries no sampling uncertainty (it is the constant 0); the
		// only error is the pruning envelope, bounded by sem itself via
		// Prop 2.5 (sim <= sem <= theta).
		ex.Sem = ev.sem
		ex.SemSkipped = true
		ex.PruneEnvelope = ev.sem
	default:
		nw := e.ix.NumWalks()
		ex.Sem = ev.sem
		ex.NumWalks = nw
		ex.MeetsByStep = ev.meetsByStep
		ex.WalksCoupled = int(ev.coupled)
		ex.WalkCaps = int(ev.capped)
		mean, variance, stderr, lo, hi := quality.CLT(ev.sem, nw, ev.total, ev.sumSq)
		ex.Mean, ex.Variance, ex.StdErr = mean, variance, stderr
		// Johnson's skewness correction recenters the interval: importance
		// weights are right-skewed, so the symmetric CLT interval misses
		// high more often than 1-Confidence admits (see quality.SkewShift).
		shift := quality.SkewShift(ev.sem, nw, ev.total, ev.sumSq, ev.sumCube)
		ex.SkewShift = shift
		ex.CILow = quality.Clamp01(lo + shift)
		ex.CIHigh = quality.Clamp01(hi + shift)
		if e.theta > 0 {
			// Prop 4.6: theta-capping introduces a one-sided additive
			// error of at most theta on the estimate.
			ex.PruneEnvelope = e.theta
		}
	}
	ex.ElapsedSeconds = time.Since(t0).Seconds()
	e.m.explains.Inc()
	e.m.explainLat.ObserveDuration(time.Since(t0))
	return ex
}

// cacheMode reports where SO normalizations are served from: "dense"
// (precomputed triangular table), "map" (striped lazy cache) or "none".
func (e *Estimator) cacheMode() string {
	switch {
	case e.cache == nil:
		return "none"
	case e.cache.Dense():
		return "dense"
	default:
		return "map"
	}
}

// kernelMode reports the semantic kernel's evaluation mode ("dense" or
// "memo"), or "" when the measure is not kernel-wrapped.
func (e *Estimator) kernelMode() string {
	if k, ok := e.sem.(*semantic.Kernel); ok {
		return k.Mode()
	}
	return ""
}
