package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// fakeServe answers the benchmark's endpoints with well-formed bodies,
// except that every endpoint named in fail gets a 500.
func fakeServe(t *testing.T, fail ...string) *httptest.Server {
	failing := map[string]bool{}
	for _, ep := range fail {
		failing["/"+ep] = true
	}
	epoch := uint64(0)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if failing[r.URL.Path] {
			http.Error(rw, "injected failure", http.StatusInternalServerError)
			return
		}
		u, v := r.URL.Query().Get("u"), r.URL.Query().Get("v")
		var body any
		switch r.URL.Path {
		case "/query":
			body = map[string]any{"u": u, "v": v, "sem": 0.5, "semsim": 0.25, "simrank": 0.5}
		case "/explain":
			body = map[string]any{"u_name": u, "v_name": v, "score": 0.25}
		case "/topk":
			body = map[string]any{"u": u, "k": topK, "results": []hit{{"b", 0.5}, {"c", 0.25}}}
		case "/mutate":
			epoch++
			body = map[string]any{"epoch": epoch, "ops": 1}
		default:
			http.NotFound(rw, r)
			return
		}
		json.NewEncoder(rw).Encode(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestVerdict drives each workload's closed loop against a fake server
// and requires a correct verdict only when every request succeeded: a
// 500 on the main or the side endpoint must make the run incorrect
// rather than leave that endpoint's latency metric without samples.
func TestVerdict(t *testing.T) {
	in := &inputs{seed: 3, names: []string{"a", "b", "c", "d"},
		batches: []batch{{"a", "b", true}, {"a", "b", false}}}
	for _, name := range []string{"point-hot", "topk-churn"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fail := range [][]string{nil, {w.mainEP}, {w.sideEP}} {
			srv := fakeServe(t, fail...)
			load, err := runLoad(srv.URL, w, in, 100*time.Millisecond, 300*time.Millisecond, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ok, why := load.verdict(w.mainEP, w.sideEP)
			if want := fail == nil; ok != want {
				t.Errorf("%s with /%v failing: correct=%v, want %v (%v)", name, fail, ok, want, why)
			}
			if fail == nil && load.throughput() <= 0 {
				t.Errorf("%s: throughput %v with every read succeeding", name, load.throughput())
			}
		}
	}
}

// TestProcessCPU reads this process's own CPU time, which must grow by
// about the time a busy loop spins.
func TestProcessCPU(t *testing.T) {
	before, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	spin := 200 * time.Millisecond
	for t0 := time.Now(); time.Since(t0) < spin; {
	}
	after, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < spin/2 || d > 10*spin {
		t.Errorf("CPU time grew by %v over a %v busy loop", d, spin)
	}
}
