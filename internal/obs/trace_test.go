package obs

import (
	"encoding/json"
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

	spans, dropped := tr.Export()
	if len(spans) != 2 || dropped != 0 {
		t.Fatalf("Export = %d spans, %d dropped; want 2, 0", len(spans), dropped)
	}
	if spans[0].Name != "score" || spans[1].Name != "encode" {
		t.Fatalf("spans out of start order: %+v", spans)
	}
	if tr.Total() < spans[0].Duration {
		t.Fatalf("Total %v < first span %v", tr.Total(), spans[0].Duration)
	}

	data, err := json.Marshal(spans)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out []SpanRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(out, spans) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, spans)
	}
}

func TestTraceExportNil(t *testing.T) {
	var tr *Trace
	if spans, dropped := tr.Export(); spans != nil || dropped != 0 {
		t.Fatalf("nil trace exported (%v, %d), want (nil, 0)", spans, dropped)
	}
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
	for i := 0; i < 200; i++ {
		spans, _ := tr.Export()
		for j := 1; j < len(spans); j++ {
			if spans[j].Start < spans[j-1].Start {
				t.Errorf("export %d: spans out of start order", i)
			}
		}
		if _, err := json.Marshal(spans); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTraceSpanCap: spans past MaxSpansPerTrace are counted, not stored,
// so a long-lived trace stays bounded.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		tr.Start("s").End()
	}
	spans, dropped := tr.Export()
	if len(spans) != MaxSpansPerTrace {
		t.Errorf("kept %d spans, want %d", len(spans), MaxSpansPerTrace)
	}
	if dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
}
