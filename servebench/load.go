package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"semsim"
)

// writerPause is the wait between a /mutate reply and the next batch.
const writerPause = time.Second

// hit is one /topk result on the wire.
type hit struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
}

// answer is one parsed, validated 2xx response.
type answer struct {
	score float64 // semsim for /query, score for /explain
	cost  semsim.Cost
	hits  []hit  // /topk
	epoch uint64 // /mutate
}

// outcome classifies one request for the failure accounting.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeTransport
	outcomeStatus
	outcomeCheck // a 2xx whose body failed validation
)

func readPath(r request) string {
	if r.ep == "topk" {
		return fmt.Sprintf("/topk?u=%s&k=%d", url.QueryEscape(r.u), topK)
	}
	return fmt.Sprintf("/%s?u=%s&v=%s", r.ep, url.QueryEscape(r.u), url.QueryEscape(r.v))
}

// doRead sends one read and validates the body: it must parse, echo the
// requested nodes, keep every score in [0,1], and (for /topk) hold at
// most k hits sorted descending.
func doRead(hc *http.Client, base string, r request) (answer, time.Duration, outcome, error) {
	t0 := time.Now()
	resp, err := hc.Get(base + readPath(r))
	if err != nil {
		return answer{}, time.Since(t0), outcomeTransport, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return answer{}, lat, outcomeTransport, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, lat, outcomeStatus, fmt.Errorf("%s: %s: %s", readPath(r), resp.Status, bytes.TrimSpace(body))
	}
	a, err := checkRead(r, body)
	if err != nil {
		return answer{}, lat, outcomeCheck, fmt.Errorf("%s: %w", readPath(r), err)
	}
	return a, lat, outcomeOK, nil
}

func checkRead(r request, body []byte) (answer, error) {
	inRange := func(what string, x float64) error {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("%s %v outside [0,1]", what, x)
		}
		return nil
	}
	switch r.ep {
	case "query":
		var q struct {
			U, V                 string
			Sem, SemSim, SimRank float64
			Cost                 semsim.Cost
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return answer{}, err
		}
		if q.U != r.u || q.V != r.v {
			return answer{}, fmt.Errorf("answered (%s,%s)", q.U, q.V)
		}
		for _, e := range []error{inRange("semsim", q.SemSim), inRange("sem", q.Sem), inRange("simrank", q.SimRank)} {
			if e != nil {
				return answer{}, e
			}
		}
		return answer{score: q.SemSim, cost: q.Cost}, nil
	case "explain":
		var x struct {
			UName string `json:"u_name"`
			VName string `json:"v_name"`
			Score float64
			Cost  semsim.Cost
		}
		if err := json.Unmarshal(body, &x); err != nil {
			return answer{}, err
		}
		if x.UName != r.u || x.VName != r.v {
			return answer{}, fmt.Errorf("answered (%s,%s)", x.UName, x.VName)
		}
		if err := inRange("score", x.Score); err != nil {
			return answer{}, err
		}
		return answer{score: x.Score, cost: x.Cost}, nil
	case "topk":
		var t struct {
			U       string
			K       int
			Results []hit
			Cost    semsim.Cost
		}
		if err := json.Unmarshal(body, &t); err != nil {
			return answer{}, err
		}
		if t.U != r.u || t.K != topK {
			return answer{}, fmt.Errorf("answered u=%s k=%d", t.U, t.K)
		}
		if len(t.Results) > topK {
			return answer{}, fmt.Errorf("%d hits for k=%d", len(t.Results), topK)
		}
		for i, h := range t.Results {
			if err := inRange("score of "+h.Node, h.Score); err != nil {
				return answer{}, err
			}
			if i > 0 && h.Score > t.Results[i-1].Score {
				return answer{}, fmt.Errorf("hits not sorted descending at %d", i)
			}
		}
		return answer{hits: t.Results, cost: t.Cost}, nil
	}
	return answer{}, fmt.Errorf("unknown endpoint %q", r.ep)
}

// doMutate posts one single-edge batch and checks that it committed
// exactly one op.
func doMutate(hc *http.Client, base, label string, b batch) (answer, time.Duration, outcome, error) {
	kind := "remove_edge"
	if b.add {
		kind = "add_edge"
	}
	op := map[string]any{"op": kind, "from": b.from, "to": b.to, "label": label}
	if b.add {
		op["weight"] = 1.0
	}
	payload, err := json.Marshal(map[string]any{"ops": []any{op}})
	if err != nil {
		return answer{}, 0, outcomeTransport, err
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/mutate", "application/json", bytes.NewReader(payload))
	if err != nil {
		return answer{}, time.Since(t0), outcomeTransport, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return answer{}, lat, outcomeTransport, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, lat, outcomeStatus, fmt.Errorf("/mutate: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var m struct {
		Epoch uint64
		Ops   int
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return answer{}, lat, outcomeCheck, fmt.Errorf("/mutate: %w", err)
	}
	if m.Ops != 1 {
		return answer{}, lat, outcomeCheck, fmt.Errorf("/mutate: committed %d ops, sent 1", m.Ops)
	}
	return answer{epoch: m.Epoch}, lat, outcomeOK, nil
}

// tally accumulates request outcomes and latencies.
type tally struct {
	lat                        map[string][]time.Duration // successful requests, per endpoint
	attempted, failed, okReads int
	notes                      []string // the first few failure messages
}

func newTally() *tally { return &tally{lat: map[string][]time.Duration{}} }

func (t *tally) record(ep string, lat time.Duration, oc outcome, err error) {
	t.attempted++
	if oc == outcomeOK {
		t.lat[ep] = append(t.lat[ep], lat)
		if ep != "mutate" {
			t.okReads++
		}
		return
	}
	t.failed++
	t.note(err)
}

// fail records a failed output check that is not tied to one request.
func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	t.note(err)
}

func (t *tally) note(err error) {
	if err != nil && len(t.notes) < 8 {
		t.notes = append(t.notes, err.Error())
	}
}

// mergeAttempts adds o's attempted and failed counts and notes, but not
// its latencies or reads.
func (t *tally) mergeAttempts(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

func (t *tally) merge(o *tally) {
	for ep, l := range o.lat {
		t.lat[ep] = append(t.lat[ep], l...)
	}
	t.okReads += o.okReads
	t.mergeAttempts(o)
}

// verdict reports whether a run is correct: no request failed (non-2xx,
// transport error or failed check) and each of the named endpoints has
// successful samples, so no latency metric is read off an empty set. The
// second result explains a false verdict.
func (t *tally) verdict(eps ...string) (bool, []string) {
	var why []string
	if t.failed > 0 {
		why = append(why, fmt.Sprintf("%d of %d attempted requests and checks failed", t.failed, t.attempted))
	}
	for _, ep := range eps {
		if len(t.lat[ep]) == 0 {
			why = append(why, fmt.Sprintf("no successful /%s request", ep))
		}
	}
	return len(why) == 0, why
}

// loadRun is the outcome of one closed-loop phase.
type loadRun struct {
	*tally
	elapsed   time.Duration // from the end of the warm-up until the last reader finished
	committed int           // batches the writer committed
	// cpu is the server's CPU time over the measured phase (0 when no
	// process was given).
	cpu time.Duration
}

// throughput is the 2xx reads completed per second over the whole phase.
func (r *loadRun) throughput() float64 {
	return ratio(float64(r.okReads), r.elapsed.Seconds())
}

// cpuPerRead is the server's CPU time per 2xx read over the measured
// phase, in µs.
func (r *loadRun) cpuPerRead() float64 {
	return ratio(float64(r.cpu)/float64(time.Microsecond), float64(r.okReads))
}

// runLoad drives the server in a closed loop: w.clients readers, each on
// its own connection and request stream, read for warm and then for the
// measured d; the timed writer, when the workload has one, runs during d
// only. Only the measured phase contributes latencies and reads, but a
// request that fails during the warm-up counts as failed too. pid, when
// not 0, is the server process whose CPU time the phase is charged.
// startEpoch is the server's epoch before the phase; every commit must
// advance it by exactly one.
func runLoad(base string, w *workload, in *inputs, warm, d time.Duration, pid int, startEpoch uint64) (*loadRun, error) {
	// The clients spend their time waiting on the server; one P is ample
	// for them, and a second one would only compete with the server for
	// the same CPUs (measured on 2 vCPUs: throughput up and steadier
	// with the load generator at GOMAXPROCS 1).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		run = &loadRun{tally: newTally()}
	)
	t0 := time.Now().Add(warm)
	deadline := t0.Add(d)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			s := newRequestStream(w, in, c)
			warming, local := newTally(), newTally()
			for time.Now().Before(t0) {
				r := s.next()
				_, lat, oc, err := doRead(hc, base, r)
				warming.record(r.ep, lat, oc, err)
			}
			for time.Now().Before(deadline) {
				r := s.next()
				_, lat, oc, err := doRead(hc, base, r)
				local.record(r.ep, lat, oc, err)
			}
			end := time.Since(t0)
			mu.Lock()
			run.mergeAttempts(warming)
			run.merge(local)
			if end > run.elapsed {
				run.elapsed = end
			}
			mu.Unlock()
		}(c)
	}
	if w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(t0))
			hc := newClient()
			defer hc.CloseIdleConnections()
			local := newTally()
			epoch, committed := startEpoch, 0
			for i := 0; time.Now().Before(deadline) && i < len(in.batches); i++ {
				a, lat, oc, err := doMutate(hc, base, in.relation, in.batches[i])
				if oc == outcomeOK && a.epoch != epoch+1 {
					oc, err = outcomeCheck, fmt.Errorf("/mutate: epoch %d after %d", a.epoch, epoch)
				}
				local.record("mutate", lat, oc, err)
				if oc != outcomeOK {
					break // later batches would toggle from an unknown state
				}
				epoch, committed = a.epoch, committed+1
				if rest := time.Until(deadline); rest < writerPause {
					time.Sleep(max(rest, 0))
				} else {
					time.Sleep(writerPause)
				}
			}
			mu.Lock()
			run.merge(local)
			run.committed = committed
			mu.Unlock()
		}()
	}
	var cpu0, cpu1 time.Duration
	var err0, err1 error
	if pid != 0 {
		time.Sleep(time.Until(t0))
		cpu0, err0 = processCPU(pid)
	}
	wg.Wait()
	if pid != 0 {
		cpu1, err1 = processCPU(pid)
	}
	if err := errors.Join(err0, err1); err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	return run, nil
}
