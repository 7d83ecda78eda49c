// Package flight is the serving layer's one per-request record: an
// always-on flight recorder holding a preallocated ring of compact wide
// events — one per served request or mutation commit — that a debug
// endpoint can dump as NDJSON at any moment, plus one optional NDJSON
// sink that receives the same record as a line (the query log). It
// answers the incident question "what exactly were the last few
// thousand requests" without log shipping, sampling bias, or
// per-request allocation; the sink keeps the full history on disk.
//
// Concurrency design: a single atomic sequence counter assigns each
// Record call a unique slot (seq modulo ring size), and a per-slot mutex
// latches the copy into that slot. Writers to *different* slots never
// contend; two writers lapping onto the same slot (ring wrapped a full
// generation between them) serialize briefly. Dump locks each slot just
// long enough to copy it out, so a dump never blocks the whole ring. A
// true seqlock (retry-on-odd reads over non-atomic slot memory) would be
// faster still but is indistinguishable from a data race to the race
// detector, and the repo's tier-2 gate runs everything under -race — the
// per-slot mutex keeps the recorder honestly race-free at a cost of a
// few ns per request. Sink writes are serialized on their own mutex, so
// a slow log never holds a ring slot.
//
// Nil is off, matching internal/obs: every method no-ops on a nil *Ring.
package flight

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"semsim/internal/obs"
)

// Record is one wide event. Times are unix nanoseconds and latencies are
// raw nanoseconds (not time.Time / time.Duration) so the struct is flat
// and marshals without custom encoders. Cost is embedded by value: the
// ring preallocates it with the slot. Fields after Cost are set only
// where they apply and are omitted from the JSON when zero.
type Record struct {
	// Seq is the global 1-based sequence number, assigned by the ring.
	Seq uint64 `json:"seq"`
	// TimeNS is the request's arrival time, unix nanoseconds
	// (caller-stamped).
	TimeNS int64 `json:"time_ns"`
	// Endpoint is the serving endpoint ("/query", "/topk", "/mutate", ...).
	Endpoint string `json:"endpoint"`
	// RequestID is the serve-assigned (or X-Semsim-Request-propagated)
	// request identifier: the join key to whatever an upstream caller
	// logged.
	RequestID string `json:"request_id"`
	// Epoch is the index epoch the request was answered from, or the
	// epoch a /mutate commit published.
	Epoch uint64 `json:"epoch"`
	// Strategy is the planner strategy for top-k requests ("" otherwise).
	Strategy string `json:"strategy,omitempty"`
	// Status is the HTTP status code (or 0 for non-HTTP events).
	Status int `json:"status"`
	// ErrClass classifies failures: "" ok, "client" 4xx, "server" 5xx.
	ErrClass string `json:"err_class,omitempty"`
	// LatencyNS is the request latency in nanoseconds.
	LatencyNS int64 `json:"latency_ns"`
	// Cost is the request's cost accounting (zero when accounting is
	// off or the endpoint does no query work).
	Cost obs.Cost `json:"cost"`

	// U, V and K are the resolved query parameters (source, target,
	// top-k size). Callers record only names that resolved to a node,
	// as the graph's own strings, so a record never holds raw request
	// input.
	U string `json:"u,omitempty"`
	V string `json:"v,omitempty"`
	K int    `json:"k,omitempty"`
	// Score is the pair score (/query, /explain); Results the number of
	// top-k hits returned (/topk).
	Score   float64 `json:"score,omitempty"`
	Results int     `json:"results,omitempty"`
	// CIWidth is the width of the CLT confidence interval over the
	// walk-meeting contributions (/explain).
	CIWidth float64 `json:"ci_width,omitempty"`
	// Backend is the scoring backend that answered.
	Backend string `json:"backend,omitempty"`
	// Error is the error message returned to the client, cut to
	// MaxErrorBytes by the ring.
	Error string `json:"error,omitempty"`
	// Ops, ResampledWalks and NewNodes are a /mutate commit's repair
	// counts: batched mutations applied, walks resampled, nodes added.
	Ops            int `json:"ops,omitempty"`
	ResampledWalks int `json:"resampled_walks,omitempty"`
	NewNodes       int `json:"new_nodes,omitempty"`
	// Spans is the per-layer timing of a sampled request; DroppedSpans
	// counts spans past obs.MaxSpansPerTrace.
	Spans        []obs.SpanRecord `json:"spans,omitempty"`
	DroppedSpans int              `json:"dropped_spans,omitempty"`
}

// MaxErrorBytes bounds Record.Error: the ring cuts longer messages (at a
// UTF-8 boundary, into a copy) so a hostile request cannot inflate a
// slot, pin a large message in memory, or bloat a log line.
const MaxErrorBytes = 256

// slot is one ring cell. The mutex latches writers lapping each other
// and Dump's copy-out; see the package comment for why this is a mutex
// and not a seqlock.
type slot struct {
	mu  sync.Mutex
	rec Record
	set bool
}

// Ring is the fixed-size flight recorder. Safe for concurrent Record and
// Dump from any number of goroutines.
type Ring struct {
	seq   atomic.Uint64
	slots []slot
	sink  *sink
}

// sink is the ring's optional NDJSON writer. Writes are serialized;
// failures are counted and dropped, so a failing log never breaks
// serving.
type sink struct {
	mu     sync.Mutex
	w      io.Writer
	events *obs.Counter
	fails  *obs.Counter
}

// New builds a ring holding the last n records. n <= 0 returns nil, the
// disabled recorder.
func New(n int) *Ring {
	if n <= 0 {
		return nil
	}
	return &Ring{slots: make([]slot, n)}
}

// SetSink makes every later Record also write the record as one NDJSON
// line to w — the same bytes Dump writes for it. Written lines and
// failed writes are counted on reg (optional) as
// semsim_querylog_events_total and semsim_querylog_write_errors_total.
// A nil w leaves the ring without a sink. Call it before the first
// Record; it is not safe to race with Record. No-op on a nil ring.
func (r *Ring) SetSink(w io.Writer, reg *obs.Registry) {
	if r == nil || w == nil {
		return
	}
	r.sink = &sink{
		w: w,
		events: reg.Counter("semsim_querylog_events_total",
			"Wide events written to the structured query log."),
		fails: reg.Counter("semsim_querylog_write_errors_total",
			"Query log events dropped because the writer failed."),
	}
}

// Record stores rec in the ring, overwriting the oldest entry once the
// ring has wrapped, and writes it to the sink when one is set. The ring
// assigns rec.Seq and cuts rec.Error to MaxErrorBytes. Zero allocations
// without a sink unless Error needs cutting; no-op on a nil ring.
func (r *Ring) Record(rec Record) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	rec.Seq = seq
	rec.Error = truncate(rec.Error, MaxErrorBytes)
	s.mu.Lock()
	s.rec = rec
	s.set = true
	s.mu.Unlock()
	if r.sink != nil {
		r.sink.write(rec)
	}
}

// write encodes rec as one line. Each record is marshaled on its own,
// so one failed write drops only that record: a writer that recovers
// (a full disk freed, a rotation retried) gets the next line. It takes
// rec by value so that only this path, not the ring-only one, pays for
// the boxing. json.Marshal escapes like Dump's Encoder, so the line is
// byte-identical to the record's Dump line.
func (k *sink) write(rec Record) {
	line, err := json.Marshal(rec)
	if err == nil {
		line = append(line, '\n')
		k.mu.Lock()
		_, err = k.w.Write(line)
		k.mu.Unlock()
	}
	if err != nil {
		k.fails.Inc()
		return
	}
	k.events.Inc()
}

// truncate cuts s to at most n bytes without splitting a UTF-8 sequence.
// The cut is copied so the ring does not keep the long original alive.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return strings.Clone(s[:n])
}

// Len reports how many records the ring currently holds (0 on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	n := r.seq.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Cap reports the ring capacity (0 on nil).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot copies the current records out of the ring, oldest first.
// Records written while the snapshot walks the slots may or may not be
// included — each slot is internally consistent (copied under its
// latch), which is the scrape-consistency contract the rest of
// internal/obs follows. Returns nil on a nil ring.
func (r *Ring) Snapshot() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the current records to w as NDJSON, oldest first. Returns
// the number of records written. No-op on a nil ring.
func (r *Ring) Dump(w io.Writer) (int, error) {
	if r == nil {
		return 0, nil
	}
	recs := r.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return 0, err
		}
	}
	return len(recs), bw.Flush()
}

// ClassifyStatus maps an HTTP status code to a Record.ErrClass.
func ClassifyStatus(code int) string {
	switch {
	case code >= 500:
		return "server"
	case code >= 400:
		return "client"
	default:
		return ""
	}
}
