package main

// Tests for the incident-diagnostics surface: per-request cost
// accounting in responses and /metrics, the flight recorder at
// /debug/flight (one record per request, teed to the query log), the
// heavy-hitters sketch at /debug/heavy, and the one-shot /debug/diag
// bundle plus its client-side unpack.

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semsim"
	"semsim/internal/obs/flight"
	"semsim/internal/promlint"
)

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rr.Code, rr.Body)
	}
	return rr
}

// TestServeQueryCostPayload: /query and /topk responses embed the cost
// accounting, and the counters reflect real work.
func TestServeQueryCostPayload(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	var q struct {
		Cost semsim.Cost `json:"cost"`
	}
	if err := json.Unmarshal(get(t, mux, "/query?u=ada&v=ben").Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Cost.Pairs != 1 || q.Cost.KernelProbes == 0 {
		t.Errorf("/query cost = %+v, want pairs=1 and kernel probes > 0", q.Cost)
	}
	var tk struct {
		Cost semsim.Cost `json:"cost"`
	}
	if err := json.Unmarshal(get(t, mux, "/topk?u=ada&k=3").Body.Bytes(), &tk); err != nil {
		t.Fatal(err)
	}
	if tk.Cost.Pairs <= 1 {
		t.Errorf("/topk cost = %+v, want pairs > 1 (scans many candidates)", tk.Cost)
	}
}

// TestServeFlightEndpoint: every API request lands in the flight
// recorder; the dump is parseable NDJSON carrying request IDs, status
// and cost, with error requests classified.
func TestServeFlightEndpoint(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	get(t, mux, "/query?u=ada&v=ben")
	get(t, mux, "/topk?u=ada&k=3")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/query?u=ada&v=nobody", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown-node query: status %d", rr.Code)
	}

	dump := get(t, mux, "/debug/flight")
	if ct := dump.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/debug/flight Content-Type = %q", ct)
	}
	type rec struct {
		Seq       uint64      `json:"seq"`
		Endpoint  string      `json:"endpoint"`
		RequestID string      `json:"request_id"`
		Status    int         `json:"status"`
		ErrClass  string      `json:"err_class"`
		LatencyNS int64       `json:"latency_ns"`
		Cost      semsim.Cost `json:"cost"`
	}
	var recs []rec
	sc := bufio.NewScanner(bytes.NewReader(dump.Body.Bytes()))
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("torn flight line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 3 {
		t.Fatalf("flight holds %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.RequestID == "" || r.LatencyNS <= 0 {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
		if i > 0 && recs[i-1].Seq >= r.Seq {
			t.Errorf("records out of order: seq %d then %d", recs[i-1].Seq, r.Seq)
		}
	}
	if recs[0].Endpoint != "/query" || recs[0].Status != 200 || recs[0].Cost.Pairs != 1 {
		t.Errorf("first record = %+v", recs[0])
	}
	last := recs[2]
	if last.Status != http.StatusNotFound || last.ErrClass != "client" {
		t.Errorf("error record = %+v, want 404/client", last)
	}
}

// TestServeHeavyEndpoint: repeated traffic from one source dominates the
// heavy-hitters sketch.
func TestServeHeavyEndpoint(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	for i := 0; i < 5; i++ {
		get(t, mux, "/query?u=ada&v=ben")
	}
	get(t, mux, "/query?u=ben&v=ada")

	var body struct {
		Capacity int `json:"capacity"`
		Tracked  int `json:"tracked"`
		Top      []struct {
			Key   string `json:"key"`
			Count int64  `json:"count"`
		} `json:"top"`
	}
	if err := json.Unmarshal(get(t, mux, "/debug/heavy?n=5").Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Tracked != 2 || len(body.Top) != 2 {
		t.Fatalf("heavy tracked=%d top=%d, want 2/2", body.Tracked, len(body.Top))
	}
	if body.Top[0].Key != "ada" || body.Top[0].Count <= body.Top[1].Count {
		t.Errorf("heavy top = %+v, want ada dominating", body.Top)
	}
}

// TestServeMetricsCostSeries: after costed traffic the /metrics scrape
// carries the semsim_query_cost_* histograms and the heavy-hitters
// series, and the whole exposition stays promlint-clean.
func TestServeMetricsCostSeries(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	get(t, mux, "/query?u=ada&v=ben")
	get(t, mux, "/topk?u=ada&k=3")

	body := get(t, mux, "/metrics").Body.String()
	for _, series := range []string{
		"semsim_query_cost_walk_steps",
		"semsim_query_cost_so_hits",
		"semsim_query_cost_so_misses",
		"semsim_query_cost_kernel_probes",
		"semsim_heavy_observations_total",
		"semsim_heavy_tracked_keys",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if problems := promlint.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("promlint problems on /metrics: %v", problems)
	}
}

// TestServeDiagBundleRoundTrip: /debug/diag streams a tar.gz whose
// entries unpack through the diag subcommand's extractor, every
// required entry is present and non-empty, and the flight dump inside
// the bundle joins to the query log by request ID, line for line.
func TestServeDiagBundleRoundTrip(t *testing.T) {
	var qbuf bytes.Buffer
	mux, _ := newTestMux(t, &qbuf)
	get(t, mux, "/query?u=ada&v=ben")
	get(t, mux, "/topk?u=ben&k=2")

	rr := get(t, mux, "/debug/diag")
	if ct := rr.Header().Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("/debug/diag Content-Type = %q", ct)
	}

	dir := t.TempDir()
	var report bytes.Buffer
	n, err := unpackDiag(bytes.NewReader(rr.Body.Bytes()), dir, &report)
	if err != nil {
		t.Fatalf("unpackDiag: %v", err)
	}
	want := []string{
		"metrics.prom", "expvar.json", "flight.ndjson",
		"profiles.json", "slo.json", "heavy.json", "buildinfo.json",
	}
	if n != len(want) {
		t.Fatalf("bundle holds %d entries, want %d (report: %s)", n, len(want), report.String())
	}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle entry %s missing: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("bundle entry %s is empty", name)
		}
	}

	var build struct {
		Backend string `json:"backend"`
		Go      string `json:"go"`
		Nodes   int    `json:"nodes"`
	}
	data, _ := os.ReadFile(filepath.Join(dir, "buildinfo.json"))
	if err := json.Unmarshal(data, &build); err != nil {
		t.Fatalf("buildinfo.json: %v", err)
	}
	if build.Backend == "" || build.Go == "" || build.Nodes == 0 {
		t.Errorf("buildinfo incomplete: %+v", build)
	}

	var slo struct {
		Enabled bool `json:"enabled"`
	}
	data, _ = os.ReadFile(filepath.Join(dir, "slo.json"))
	if err := json.Unmarshal(data, &slo); err != nil {
		t.Fatalf("slo.json: %v", err)
	}
	if slo.Enabled {
		t.Error("slo.json claims enabled with no tracker configured")
	}

	// Join check: the query log and the bundled flight dump are two
	// views of one record, so every flight line appears verbatim in the
	// log and an operator can pivot bundle → log by request ID.
	qlines := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(qbuf.Bytes()))
	for sc.Scan() {
		qlines[sc.Text()] = true
	}
	if len(qlines) != 2 {
		t.Fatalf("query log holds %d lines, want 2", len(qlines))
	}
	fdata, _ := os.ReadFile(filepath.Join(dir, "flight.ndjson"))
	joined := 0
	sc = bufio.NewScanner(bytes.NewReader(fdata))
	for sc.Scan() {
		if !qlines[sc.Text()] {
			t.Errorf("flight line has no identical query-log line: %s", sc.Text())
		}
		joined++
	}
	if joined != 2 {
		t.Errorf("flight dump joined %d records to the query log, want 2", joined)
	}
}

// TestServeRecordsEveryRequest: failures and commits are wide events
// too. A 400, a 404 on an over-long node name, a 405 and a committed
// /mutate each leave exactly one record in the ring and the identical
// line in the query log, carrying status, the (bounded) error and, for
// the commit, the published epoch and repair counts.
func TestServeRecordsEveryRequest(t *testing.T) {
	var qbuf bytes.Buffer
	mux, _ := newTestMux(t, &qbuf)
	long := strings.Repeat("n", 1100)
	reqs := []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/query?v=ben", "", http.StatusBadRequest},
		{"GET", "/query?u=ada&v=" + long, "", http.StatusNotFound},
		{"GET", "/mutate", "", http.StatusMethodNotAllowed},
		{"POST", "/mutate", `{"ops": [{"op": "add_edge", "from": "ada", "to": "cho", "label": "co-author"}]}`, http.StatusOK},
	}
	for _, rq := range reqs {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body)))
		if rr.Code != rq.status {
			t.Fatalf("%s %s: status %d, want %d: %s", rq.method, rq.path[:min(len(rq.path), 40)], rr.Code, rq.status, rr.Body)
		}
	}

	flines := strings.Split(strings.TrimSpace(get(t, mux, "/debug/flight").Body.String()), "\n")
	qlines := strings.Split(strings.TrimSpace(qbuf.String()), "\n")
	if len(flines) != len(reqs) || len(qlines) != len(reqs) {
		t.Fatalf("ring holds %d records and the query log %d lines, want %d each", len(flines), len(qlines), len(reqs))
	}
	for i, rq := range reqs {
		if flines[i] != qlines[i] {
			t.Errorf("%s %.40s: ring and query log differ:\n%s\n%s", rq.method, rq.path, flines[i], qlines[i])
		}
		var rec flight.Record
		if err := json.Unmarshal([]byte(flines[i]), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Status != rq.status {
			t.Errorf("record %d status %d, want %d", i, rec.Status, rq.status)
		}
		if ok := rq.status == http.StatusOK; ok != (rec.Error == "") || ok != (rec.ErrClass == "") {
			t.Errorf("record %d: status %d with error %q class %q", i, rec.Status, rec.Error, rec.ErrClass)
		}
		if len(rec.Error) > flight.MaxErrorBytes {
			t.Errorf("record %d error is %d bytes, over the %d bound", i, len(rec.Error), flight.MaxErrorBytes)
		}
	}
	var notFound, commit flight.Record
	json.Unmarshal([]byte(flines[1]), &notFound)
	json.Unmarshal([]byte(flines[3]), &commit)
	if !strings.HasPrefix(notFound.Error, "unknown node nnn") || len(notFound.Error) != flight.MaxErrorBytes {
		t.Errorf("404 error not cut to %d bytes: %d bytes %.40q", flight.MaxErrorBytes, len(notFound.Error), notFound.Error)
	}
	if notFound.U != "ada" || notFound.V != "" {
		t.Errorf("404 record names = %q/%q, want only the resolved ada", notFound.U, notFound.V)
	}
	if commit.Endpoint != "/mutate" || commit.Epoch != 1 || commit.Ops != 1 || commit.ResampledWalks == 0 {
		t.Errorf("commit record = %+v, want epoch 1, ops 1, resampled walks > 0", commit)
	}
}

// TestServeDiagSampledSpans: with -trace-sample 1 and nothing else
// configured, every request's record in the bundled flight dump carries
// its per-layer spans.
func TestServeDiagSampledSpans(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		opts: semsim.IndexOptions{
			NumWalks: 40, WalkLength: 6, C: 0.6, Theta: 0.05, Seed: 1,
		},
		traceSample: 1,
		stop:        stop,
		logw:        io.Discard,
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- runServe(g, lin, cfg, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up within 30s")
	}
	defer func() {
		close(stop)
		if err := <-errc; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + addr
	paths := []string{"/query?u=ada&v=ben", "/explain?u=ada&v=eve", "/topk?u=cho&k=3", "/query?v=ben"}
	for _, p := range paths {
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(base+"/mutate", "application/json",
		strings.NewReader(`{"ops": [{"op": "add_edge", "from": "ada", "to": "cho", "label": "co-author"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/debug/diag")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, err = unpackDiag(resp.Body, dir, io.Discard)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("unpackDiag: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "flight.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(paths)+1 {
		t.Fatalf("bundled flight dump holds %d records, want %d", len(lines), len(paths)+1)
	}
	for _, line := range lines {
		var rec flight.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Spans) == 0 {
			t.Errorf("%s record (status %d) has no spans", rec.Endpoint, rec.Status)
		}
	}
}

// newGzTar writes a gzip-compressed tar with the given entries into w.
func newGzTar(t *testing.T, w io.Writer, entries map[string][]byte) {
	t.Helper()
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for name, data := range entries {
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnpackDiagRejectsTraversal: hostile entry names cannot escape the
// output directory.
func TestUnpackDiagRejectsTraversal(t *testing.T) {
	var raw bytes.Buffer
	newGzTar(t, &raw, map[string][]byte{
		"../../escape.txt": []byte("nope"),
		"ok.txt":           []byte("fine"),
	})
	dir := t.TempDir()
	if _, err := unpackDiag(bytes.NewReader(raw.Bytes()), dir, io.Discard); err != nil {
		t.Fatalf("unpackDiag: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape.txt")); err != nil {
		t.Error("traversal entry was not flattened into dir")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(filepath.Dir(dir)), "escape.txt")); err == nil {
		t.Error("traversal entry escaped the output directory")
	}
}
