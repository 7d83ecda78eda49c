package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `semsim serve` child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
	err  error // exit status, valid once done is closed
}

const (
	startTimeout = 150 * time.Second
	stopTimeout  = 15 * time.Second
	healthPoll   = 5 * time.Millisecond
)

// startServe execs `semsim serve` and returns once /healthz answers 200,
// together with the time from exec to that answer.
func startServe(bin string, args []string, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-debug-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(t0)
				hc.CloseIdleConnections()
				return s, setup, nil
			}
		}
		select {
		case <-s.done:
			s.log.Close()
			return nil, 0, fmt.Errorf("serve exited before ready (%v): %s", s.err, tail(logPath))
		case <-time.After(healthPoll):
		}
		if time.Since(t0) > startTimeout {
			s.stop()
			return nil, 0, fmt.Errorf("serve not ready after %s: %s", startTimeout, tail(logPath))
		}
	}
}

// stop sends SIGTERM (serve drains and exits), escalates to SIGKILL
// after stopTimeout, and waits for the process to end.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// freeAddr reserves a loopback port for the child to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// processCPU is the user plus system CPU time process pid has used so
// far. The kernel charges a guest's stolen time (the hypervisor running
// something else) to steal, not to the process.
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name start at state
	// (field 3); utime and stime are fields 14 and 15.
	var f []string
	if i := bytes.LastIndexByte(data, ')'); i >= 0 {
		f = strings.Fields(string(data[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// scrape is one reading of the server's counters: the Prometheus
// exposition plus the Go runtime's GC totals from /debug/vars (read at
// request time, unlike the semsim_runtime_gc_* gauges, which refresh
// only every health poll).
type scrape struct {
	at      time.Time
	series  map[string]float64
	numGC   float64
	pauseNS float64
}

func (s *server) scrape(hc *http.Client) (*scrape, error) {
	sc := &scrape{at: time.Now(), series: map[string]float64{}}
	body, err := fetch(hc, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			sc.series[line[:i]] = v
		}
	}
	body, err = fetch(hc, s.base+"/debug/vars")
	if err != nil {
		return nil, err
	}
	var vars struct {
		Memstats struct {
			NumGC        float64
			PauseTotalNs float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	sc.numGC, sc.pauseNS = vars.Memstats.NumGC, vars.Memstats.PauseTotalNs
	return sc, nil
}

// delta is after minus before for one series (absent series read 0).
func delta(before, after *scrape, name string) float64 {
	return after.series[name] - before.series[name]
}

// epoch reads the server's current index epoch.
func (s *server) epoch(hc *http.Client) (uint64, error) {
	body, err := fetch(hc, s.base+"/snapshot")
	if err != nil {
		return 0, err
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, fmt.Errorf("/snapshot: %w", err)
	}
	e, ok := snap.Gauges["semsim_mutator_epoch"]
	if !ok {
		return 0, errors.New("/snapshot: no semsim_mutator_epoch gauge")
	}
	return uint64(e), nil
}

func fetch(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// newClient returns an HTTP client holding at most one connection, so
// each closed-loop client is exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
