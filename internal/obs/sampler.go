package obs

import (
	"math"
	"sync/atomic"
)

// Sampler makes deterministic keep/drop decisions at a configured rate.
// Each Sample call consumes one slot in a fixed sequence derived from
// the seed (a splitmix64 stream thresholded against the rate), so two
// runs with the same seed and the same call order keep exactly the same
// subset — which makes sampled-trace tests reproducible. Decisions are
// one atomic add plus a few arithmetic ops: cheap enough for the
// per-request path; serve uses it to pick the requests whose spans ride
// on their wide event. A nil *Sampler never samples.
type Sampler struct {
	threshold uint64 // keep when splitmix(seed+n) < threshold
	seed      uint64
	n         atomic.Uint64
}

// NewSampler returns a sampler keeping ~rate of calls (rate clamped to
// [0,1]). Rate 0 (or below) returns nil — the disabled state; rate >= 1
// keeps everything.
func NewSampler(rate float64, seed int64) *Sampler {
	if rate <= 0 || math.IsNaN(rate) {
		return nil
	}
	s := &Sampler{seed: uint64(seed)}
	if rate >= 1 {
		s.threshold = math.MaxUint64
	} else {
		s.threshold = uint64(rate * float64(1<<63) * 2)
	}
	return s
}

// Sample consumes the next slot in the sequence and reports whether it
// is kept. False on nil.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	if s.threshold == math.MaxUint64 {
		s.n.Add(1)
		return true
	}
	return splitmix64(s.seed+s.n.Add(1)) < s.threshold
}

// splitmix64 is the standard 64-bit finalizer-style mixer (Steele et
// al.); good enough diffusion that consecutive inputs give uniform
// outputs for thresholded sampling.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
