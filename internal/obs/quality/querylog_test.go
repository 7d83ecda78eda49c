package quality

// The query log is the flight recorder's NDJSON sink: serve hands the
// -query-log writer (a file, stdout, or a RotatingFile) to
// flight.Ring.SetSink, and every per-request record is written there as
// one line. These tests pin that contract over the writers serve uses.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"semsim/internal/obs"
	"semsim/internal/obs/flight"
)

func TestQueryLogNilIsOff(t *testing.T) {
	reg := obs.NewRegistry()
	r := flight.New(4)
	r.SetSink(nil, reg)
	r.Record(flight.Record{Endpoint: "/query"})
	if r.Len() != 1 {
		t.Fatalf("ring without a sink holds %d records, want 1", r.Len())
	}
	if _, ok := reg.Snapshot().Counters["semsim_querylog_events_total"]; ok {
		t.Fatal("a nil writer registered query-log series")
	}
	var off *flight.Ring
	off.SetSink(&bytes.Buffer{}, reg) // must not panic
	off.Record(flight.Record{Endpoint: "/query"})
}

func TestQueryLogWritesNDJSON(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	r := flight.New(8)
	r.SetSink(&buf, reg)
	r.Record(flight.Record{Endpoint: "/query", U: "a", V: "b", Status: 200, Score: 0.25, LatencyNS: 1000})
	r.Record(flight.Record{Endpoint: "/explain", U: "a", V: "b", Status: 200, CIWidth: 0.1})
	r.Record(flight.Record{Endpoint: "/query", Status: 404, ErrClass: "client", Error: "unknown node"})

	var dump bytes.Buffer
	if _, err := r.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	if buf.String() != dump.String() {
		t.Fatalf("query log and ring dump differ:\nlog:\n%s\ndump:\n%s", buf.String(), dump.String())
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var rec flight.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v: %s", n+1, err, sc.Text())
		}
		n++
		if rec.Seq != uint64(n) {
			t.Errorf("line %d: seq %d", n, rec.Seq)
		}
		if n == 3 && (rec.Status != 404 || rec.Error != "unknown node") {
			t.Errorf("error record lost its status or message: %+v", rec)
		}
	}
	if n != 3 {
		t.Fatalf("wrote %d lines, want 3", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["semsim_querylog_events_total"] != 3 {
		t.Errorf("events counter = %d, want 3", snap.Counters["semsim_querylog_events_total"])
	}
	if snap.Counters["semsim_querylog_write_errors_total"] != 0 {
		t.Errorf("write errors = %d, want 0", snap.Counters["semsim_querylog_write_errors_total"])
	}
}

// TestQueryLogPreservesExplicitTime: the caller's timestamp reaches the
// line untouched, and an over-long error is cut to flight.MaxErrorBytes
// in the line exactly as in the ring.
func TestQueryLogPreservesExplicitTime(t *testing.T) {
	var buf bytes.Buffer
	r := flight.New(2)
	r.SetSink(&buf, nil)
	const want = int64(1786017600123456789)
	r.Record(flight.Record{Endpoint: "/query", TimeNS: want, Error: strings.Repeat("é", flight.MaxErrorBytes)})
	var rec flight.Record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TimeNS != want {
		t.Errorf("time_ns = %d, want %d", rec.TimeNS, want)
	}
	if len(rec.Error) > flight.MaxErrorBytes || !strings.HasPrefix(strings.Repeat("é", flight.MaxErrorBytes), rec.Error) {
		t.Errorf("error not cut to %d bytes on a rune boundary: %d bytes", flight.MaxErrorBytes, len(rec.Error))
	}
	if got := r.Snapshot()[0].Error; got != rec.Error {
		t.Errorf("ring error %q != log error %q", got, rec.Error)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestQueryLogCountsWriteFailures(t *testing.T) {
	reg := obs.NewRegistry()
	r := flight.New(4)
	r.SetSink(failWriter{}, reg)
	r.Record(flight.Record{Endpoint: "/query"})
	r.Record(flight.Record{Endpoint: "/query"})
	snap := reg.Snapshot()
	if snap.Counters["semsim_querylog_write_errors_total"] != 2 {
		t.Errorf("write errors = %d, want 2", snap.Counters["semsim_querylog_write_errors_total"])
	}
	if snap.Counters["semsim_querylog_events_total"] != 0 {
		t.Errorf("events = %d, want 0 (failed writes must not count as events)", snap.Counters["semsim_querylog_events_total"])
	}
	if r.Len() != 2 {
		t.Errorf("a failing sink lost ring records: Len = %d, want 2", r.Len())
	}
}

// failOnceWriter fails its first Write and passes every later one on.
type failOnceWriter struct {
	failed bool
	buf    bytes.Buffer
}

func (w *failOnceWriter) Write(p []byte) (int, error) {
	if !w.failed {
		w.failed = true
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// TestQueryLogRecoversAfterWriteFailure: one failed write drops only
// its own record; the sink keeps writing once the writer recovers.
func TestQueryLogRecoversAfterWriteFailure(t *testing.T) {
	reg := obs.NewRegistry()
	w := &failOnceWriter{}
	r := flight.New(4)
	r.SetSink(w, reg)
	r.Record(flight.Record{Endpoint: "/query", RequestID: "lost"})
	r.Record(flight.Record{Endpoint: "/query", RequestID: "kept"})
	var rec flight.Record
	if err := json.Unmarshal(w.buf.Bytes(), &rec); err != nil {
		t.Fatalf("record after the failure not written: %v: %q", err, w.buf.String())
	}
	if rec.RequestID != "kept" || rec.Seq != 2 {
		t.Errorf("logged %+v, want the second record", rec)
	}
	snap := reg.Snapshot()
	if snap.Counters["semsim_querylog_write_errors_total"] != 1 {
		t.Errorf("write errors = %d, want 1", snap.Counters["semsim_querylog_write_errors_total"])
	}
	if snap.Counters["semsim_querylog_events_total"] != 1 {
		t.Errorf("events = %d, want 1", snap.Counters["semsim_querylog_events_total"])
	}
}

// TestQueryLogConcurrent: concurrent Record calls never interleave
// lines; run under -race it is the sink's data-race gate.
func TestQueryLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	r := flight.New(16)
	r.SetSink(&buf, nil)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				r.Record(flight.Record{Endpoint: "/query", Status: 200})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	seen := map[uint64]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec flight.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("interleaved write corrupted line %d: %s", len(seen)+1, sc.Text())
		}
		seen[rec.Seq] = true
	}
	if len(seen) != 200 {
		t.Errorf("got %d distinct records, want 200", len(seen))
	}
}
