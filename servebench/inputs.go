package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"semsim"
	"semsim/internal/datagen"
	"semsim/internal/hin"
	"semsim/internal/walk"
)

// workload is one traffic mix against one generated graph. Every field
// is fixed here; only the seed passed on the command line varies.
type workload struct {
	name  string
	items int // Amazon item count handed to datagen
	// clients is the number of closed-loop readers; each owns one
	// connection and one seeded request stream.
	clients int
	// mix lists endpoint weights, drawn per request.
	mix []mixEntry
	// writer adds the timed /mutate client (one single-edge batch, then
	// a writerPause wait after each reply).
	writer bool
	// lazy serves a v3 walk file from the streaming builder through the
	// block cache instead of sampling walks at start.
	lazy bool
	// serveFlags are the flags beyond -graph/-debug-addr (and -load-walks
	// for lazy workloads); everything else is serve's default.
	serveFlags []string
	// mainEP and sideEP name the endpoints behind the main_* and side_*
	// end-to-end metrics.
	mainEP, sideEP string
	// replayReads and replayCommits size the traced replay.
	replayReads, replayCommits int
}

type mixEntry struct {
	ep     string
	weight int
}

// Serve's own defaults (cmd/semsim), mirrored for the in-process indexes
// the checks and the traced replay build.
const (
	serveNumWalks      = 150
	serveWalkLength    = 15
	serveC             = 0.6
	serveTheta         = 0.05
	serveSLING         = 0.1
	serveSeed          = 1
	serveShadowRate    = 256
	serveWarmupQueries = 4

	// graphSeed fixes the generated graph: Amazon at 600 items with it is
	// the 695-node graph of the repository's in-process benchmarks
	// (bench_test.go). The run seed varies everything drawn on it.
	graphSeed = 99

	topK           = 10
	lazyCacheBytes = 4 << 20
)

var workloads = []*workload{
	{
		name: "point-hot", items: 600, clients: 2,
		mix:    []mixEntry{{"query", 80}, {"explain", 20}},
		mainEP: "query", sideEP: "explain",
		replayReads: 4000,
	},
	{
		name: "topk-churn", items: 600, clients: 1,
		mix:    []mixEntry{{"topk", 1}},
		writer: true,
		mainEP: "topk", sideEP: "mutate",
		replayReads: 240, replayCommits: 3,
	},
	{
		name: "point-lazy", items: 5000, clients: 2,
		mix:    []mixEntry{{"query", 80}, {"explain", 20}},
		lazy:   true,
		mainEP: "query", sideEP: "explain",
		serveFlags: []string{"-lazy-walks", "-walk-cache-bytes", strconv.Itoa(lazyCacheBytes),
			"-shadow-rate", "0"},
		replayReads: 2000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// shadowRate is the shadow-verifier rate the workload's server runs with.
func (w *workload) shadowRate() int {
	if w.lazy {
		return 0
	}
	return serveShadowRate
}

// indexOptions mirrors what `semsim serve` builds with the workload's
// flags: the CLI defaults plus the MeetIndex and AutoPlan that serve
// always turns on.
func (w *workload) indexOptions(shadowRate int) semsim.IndexOptions {
	opts := semsim.IndexOptions{
		NumWalks: serveNumWalks, WalkLength: serveWalkLength, C: serveC, Theta: serveTheta,
		SLINGCutoff: serveSLING, Seed: serveSeed, Parallel: true,
		Backend: "mc", AutoPlan: true, MeetIndex: true, SemanticKernel: "auto",
		ShadowRate: shadowRate,
	}
	if w.lazy {
		opts.LazyWalks = true
		opts.WalkCacheBytes = lazyCacheBytes
	}
	return opts
}

// inputs are everything one run derives from its seed.
type inputs struct {
	seed      int64
	graphPath string
	walksPath string // v3 walk file (lazy workloads only)
	walkBytes int64
	g         *semsim.Graph
	names     []string
	relation  string
	// probes are the fixed pairs and sources the output checks compare
	// against an in-process index.
	probePairs   [][2]string
	probeSources []string
	batches      []batch
}

// batch is one single-edge /mutate batch. The writer cycles through a
// fixed set of edge pairs, adding each and later removing it again, so
// the node count never changes.
type batch struct {
	from, to string
	add      bool
}

const (
	numProbePairs   = 24
	numProbeSources = 4
	numTogglePairs  = 4
	maxBatches      = 256
)

// makeInputs generates the workload's graph (and walk file) into dir and
// draws the requests, probes and batches from seed.
func makeInputs(w *workload, seed int64, dir string) (*inputs, error) {
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: w.items, Seed: graphSeed})
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, g: d.Graph, relation: d.RelationLabel,
		graphPath: filepath.Join(dir, "graph.hin")}
	if err := writeFile(in.graphPath, func(bw *bufio.Writer) error { return hin.Write(bw, d.Graph) }); err != nil {
		return nil, err
	}
	if w.lazy {
		in.walksPath = filepath.Join(dir, "walks.v3")
		err := writeFile(in.walksPath, func(bw *bufio.Writer) error {
			n, err := walk.BuildStreaming(d.Graph, walk.Options{
				NumWalks: serveNumWalks, Length: serveWalkLength, Seed: serveSeed,
			}, 0, bw)
			in.walkBytes = n
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	n := d.Graph.NumNodes()
	in.names = make([]string, n)
	for v := range in.names {
		in.names[v] = d.Graph.NodeName(semsim.NodeID(v))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for len(in.probePairs) < numProbePairs {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			in.probePairs = append(in.probePairs, [2]string{in.names[u], in.names[v]})
		}
	}
	for i := 0; i < numProbeSources; i++ {
		in.probeSources = append(in.probeSources, in.names[rng.Intn(n)])
	}
	if w.writer {
		in.batches, err = toggleBatches(d, rng)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// toggleBatches picks numTogglePairs item pairs with no edge between
// them and cycles through them: every pair is added, then every pair is
// removed, and so on.
func toggleBatches(d *datagen.Dataset, rng *rand.Rand) ([]batch, error) {
	items := d.Entities()
	g := d.Graph
	var pairs [][2]semsim.NodeID
	for tries := 0; len(pairs) < numTogglePairs; tries++ {
		if tries > 10000 {
			return nil, fmt.Errorf("no unconnected item pairs to toggle")
		}
		u, v := items[rng.Intn(len(items))], items[rng.Intn(len(items))]
		if u == v || connected(g, u, v) {
			continue
		}
		dup := false
		for _, p := range pairs {
			dup = dup || p == [2]semsim.NodeID{u, v} || p == [2]semsim.NodeID{v, u}
		}
		if !dup {
			pairs = append(pairs, [2]semsim.NodeID{u, v})
		}
	}
	out := make([]batch, maxBatches)
	for i := range out {
		p := pairs[i%len(pairs)]
		out[i] = batch{from: g.NodeName(p[0]), to: g.NodeName(p[1]), add: (i/len(pairs))%2 == 0}
	}
	return out, nil
}

func connected(g *semsim.Graph, u, v semsim.NodeID) bool {
	for _, x := range g.OutNeighbors(u) {
		if x == v {
			return true
		}
	}
	for _, x := range g.OutNeighbors(v) {
		if x == u {
			return true
		}
	}
	return false
}

// request is one read: the endpoint and its node names.
type request struct {
	ep   string
	u, v string
}

// requestStream is the seeded read sequence of one client. The closed
// loop and the traced replay draw from the same streams, so the replay
// repeats the first requests the load sent.
type requestStream struct {
	rng   *rand.Rand
	mix   []mixEntry
	total int
	names []string
}

func newRequestStream(w *workload, in *inputs, client int) *requestStream {
	s := &requestStream{rng: rand.New(rand.NewSource(in.seed*1_000_003 + int64(client) + 1)),
		mix: w.mix, names: in.names}
	for _, m := range w.mix {
		s.total += m.weight
	}
	return s
}

func (s *requestStream) next() request {
	x := s.rng.Intn(s.total)
	ep := s.mix[len(s.mix)-1].ep
	for _, m := range s.mix {
		if x < m.weight {
			ep = m.ep
			break
		}
		x -= m.weight
	}
	n := len(s.names)
	u := s.rng.Intn(n)
	v := s.rng.Intn(n - 1)
	if v >= u {
		v++
	}
	return request{ep: ep, u: s.names[u], v: s.names[v]}
}

// op is one step of the replay: a read, or (when isBatch) a commit.
type op struct {
	req     request
	isBatch bool
	batch   batch
}

// replayOps is the deterministic sequence the traced replay runs: the
// first replayReads requests of the client streams, round-robin, with
// the first replayCommits batches spread evenly between them.
func replayOps(w *workload, in *inputs) []op {
	streams := make([]*requestStream, w.clients)
	for c := range streams {
		streams[c] = newRequestStream(w, in, c)
	}
	var ops []op
	every := 0
	if w.replayCommits > 0 {
		every = w.replayReads / (w.replayCommits + 1)
	}
	commits := 0
	for i := 0; i < w.replayReads; i++ {
		if every > 0 && i > 0 && i%every == 0 && commits < w.replayCommits {
			ops = append(ops, op{isBatch: true, batch: in.batches[commits]})
			commits++
		}
		ops = append(ops, op{req: streams[i%w.clients].next()})
	}
	return ops
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
