package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Trace export: the cross-process half of the tracing story. A Trace
// renders in-process as a string breakdown (trace.go); TraceRecord is
// its serializable form, TraceLog the sampled NDJSON sink serve writes
// records to, and Sampler the deterministic head-based sampling
// decision. Together they let a scrape-side tool reconstruct where a
// specific request — identified by the X-Semsim-Request ID stamped into
// the record — spent its time, and correlate it with the wide-event
// query log carrying the same ID.

// TraceRecord is one exported trace: the JSON object written per line
// of a trace log. Time and RequestID are stamped by the caller
// (serve); Name, Total and Spans come from Trace.Export.
type TraceRecord struct {
	Time      time.Time     `json:"time"`
	RequestID string        `json:"request_id,omitempty"`
	Name      string        `json:"name"`
	Total     time.Duration `json:"total_ns"`
	Spans     []SpanRecord  `json:"spans"`
	// DroppedSpans counts spans ended after the trace reached
	// MaxSpansPerTrace; they are not in Spans.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// TraceLog appends TraceRecords to a writer as NDJSON, one record per
// line. Writes are mutex-serialized; failures increment a counter and
// are otherwise swallowed — trace logging must never break serving.
// NewTraceLog returns nil on a nil writer and every method no-ops on a
// nil receiver, following the package's nil-is-off convention.
type TraceLog struct {
	mu     sync.Mutex
	enc    *json.Encoder
	events *Counter
	fails  *Counter
}

// NewTraceLog wraps w in a trace log, registering throughput and
// write-error counters on reg (both optional: a nil reg just skips the
// accounting). Returns nil when w is nil.
func NewTraceLog(w io.Writer, reg *Registry) *TraceLog {
	if w == nil {
		return nil
	}
	return &TraceLog{
		enc:    json.NewEncoder(w),
		events: reg.Counter("semsim_tracelog_events_total", "Trace records written to the NDJSON trace log."),
		fails:  reg.Counter("semsim_tracelog_write_errors_total", "Trace log writes that failed (records dropped)."),
	}
}

// Log writes one record as a JSON line. No-op on nil.
func (l *TraceLog) Log(rec TraceRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	err := l.enc.Encode(rec)
	l.mu.Unlock()
	if err != nil {
		l.fails.Inc()
		return
	}
	l.events.Inc()
}

// Sampler makes deterministic keep/drop decisions at a configured rate.
// Each Sample call consumes one slot in a fixed sequence derived from
// the seed (a splitmix64 stream thresholded against the rate), so two
// runs with the same seed and the same call order keep exactly the same
// subset — which makes sampled-trace tests reproducible. Decisions are
// one atomic add plus a few arithmetic ops: cheap enough for the
// per-request path. A nil *Sampler never samples.
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
