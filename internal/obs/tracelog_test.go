package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordJSONRoundTrip(t *testing.T) {
	in := SpanRecord{Name: "resolve", Start: 1500 * time.Nanosecond, Duration: 2 * time.Microsecond}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Durations must serialize as integer nanoseconds under the _ns keys.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("unmarshal raw: %v", err)
	}
	if got := raw["start_ns"].(float64); got != 1500 {
		t.Fatalf("start_ns = %v, want 1500", got)
	}
	if got := raw["duration_ns"].(float64); got != 2000 {
		t.Fatalf("duration_ns = %v, want 2000", got)
	}
	var out SpanRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestTraceExportRoundTrip(t *testing.T) {
	tr := NewTrace("query")
	sp := tr.Start("score")
	time.Sleep(100 * time.Microsecond)
	sp.End()
	tr.Time("encode", func() {})

	rec := tr.Export()
	rec.RequestID = "req-42"
	rec.Time = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if rec.Name != "query" {
		t.Fatalf("Name = %q, want query", rec.Name)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("Spans = %d, want 2", len(rec.Spans))
	}
	if rec.Total < rec.Spans[0].Duration {
		t.Fatalf("Total %v < first span %v", rec.Total, rec.Spans[0].Duration)
	}

	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out TraceRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(out, rec) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, rec)
	}
}

func TestTraceExportNil(t *testing.T) {
	var tr *Trace
	rec := tr.Export()
	if rec.Name != "" || rec.Total != 0 || rec.Spans != nil {
		t.Fatalf("nil trace exported %+v, want zero record", rec)
	}
}

func TestTraceLogWritesNDJSON(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	tl := NewTraceLog(&buf, reg)
	if tl == nil {
		t.Fatal("NewTraceLog returned nil for a live writer")
	}
	for i := 0; i < 3; i++ {
		tr := NewTrace("query")
		tr.Time("score", func() {})
		tl.Log(tr.Export())
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if rec.Name != "query" || len(rec.Spans) != 1 {
			t.Fatalf("line %d: unexpected record %+v", lines, rec)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("wrote %d lines, want 3", lines)
	}
	if got := reg.Counter("semsim_tracelog_events_total", "").Value(); got != 3 {
		t.Fatalf("events counter = %d, want 3", got)
	}
	if got := reg.Counter("semsim_tracelog_write_errors_total", "").Value(); got != 0 {
		t.Fatalf("error counter = %d, want 0", got)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceLogWriteFailureCounted(t *testing.T) {
	reg := NewRegistry()
	tl := NewTraceLog(failWriter{}, reg)
	tl.Log(TraceRecord{Name: "query"})
	tl.Log(TraceRecord{Name: "query"})
	if got := reg.Counter("semsim_tracelog_write_errors_total", "").Value(); got != 2 {
		t.Fatalf("error counter = %d, want 2", got)
	}
	if got := reg.Counter("semsim_tracelog_events_total", "").Value(); got != 0 {
		t.Fatalf("events counter = %d, want 0", got)
	}
}

func TestTraceLogNil(t *testing.T) {
	if tl := NewTraceLog(nil, NewRegistry()); tl != nil {
		t.Fatal("NewTraceLog(nil writer) should return nil")
	}
	var tl *TraceLog
	tl.Log(TraceRecord{Name: "query"}) // must not panic
}

func TestSamplerDeterministic(t *testing.T) {
	run := func(rate float64, seed int64, n int) []bool {
		s := NewSampler(rate, seed)
		out := make([]bool, n)
		for i := range out {
			out[i] = s.Sample()
		}
		return out
	}
	a := run(0.25, 7, 2000)
	b := run(0.25, 7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same rate+seed produced different decision sequences")
	}
	c := run(0.25, 8, 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical decision sequences")
	}
	kept := 0
	for _, k := range a {
		if k {
			kept++
		}
	}
	// 2000 trials at rate 0.25: expect ~500; allow a generous band.
	if kept < 350 || kept > 650 {
		t.Fatalf("kept %d of 2000 at rate 0.25, outside [350,650]", kept)
	}
}

func TestSamplerEdgeRates(t *testing.T) {
	if s := NewSampler(0, 1); s != nil {
		t.Fatal("rate 0 should return nil (disabled)")
	}
	if s := NewSampler(-0.5, 1); s != nil {
		t.Fatal("negative rate should return nil")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler sampled")
	}
	all := NewSampler(1, 1)
	for i := 0; i < 100; i++ {
		if !all.Sample() {
			t.Fatalf("rate 1 dropped call %d", i)
		}
	}
}

// TestTraceConcurrentRecordDuringExport drives concurrent span
// recording against repeated Export calls; run under -race (ci tier 2)
// it proves export takes a consistent copy while spans land.
func TestTraceConcurrentRecordDuringExport(t *testing.T) {
	tr := NewTrace("race")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sp := tr.Start("work")
				sp.End()
			}
		}()
	}
	var buf bytes.Buffer
	tl := NewTraceLog(&buf, nil)
	for i := 0; i < 200; i++ {
		rec := tr.Export()
		for j := 1; j < len(rec.Spans); j++ {
			if rec.Spans[j].Start < rec.Spans[j-1].Start {
				t.Errorf("export %d: spans out of start order", i)
			}
		}
		tl.Log(rec)
	}
	close(stop)
	wg.Wait()
	if buf.Len() == 0 {
		t.Fatal("no trace log output")
	}
}

// TestTraceSpanCap: spans past MaxSpansPerTrace are counted, not stored,
// so a long-lived trace stays bounded.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		tr.Start("s").End()
	}
	rec := tr.Export()
	if len(rec.Spans) != MaxSpansPerTrace {
		t.Errorf("kept %d spans, want %d", len(rec.Spans), MaxSpansPerTrace)
	}
	if rec.DroppedSpans != 10 {
		t.Errorf("DroppedSpans = %d, want 10", rec.DroppedSpans)
	}
}
