package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"semsim"
	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// layerRun is what the in-process part of a traced run measured.
type layerRun struct {
	// set-up timings, seconds
	readS, walkBuildS, walkOpenS, meetBuildS, kernelBuildS, shadowBuildS float64
	viewUS                                                               float64
	refresh                                                              []time.Duration

	g   *semsim.Graph
	lin semsim.Measure
}

// measureSetup times each layer's build entry point on its own: graph
// read, the walk store (build or lazy open), the meet index, the view
// path the estimator reads through, the walk refresh each commit runs
// (when ops hold batches), and the semantic kernel.
func measureSetup(w *workload, in *inputs, ops []op, tr *tracer) (*layerRun, error) {
	lr := &layerRun{}
	timeIt := func(name string, fn func() error) (float64, error) {
		freeMemory()
		id := tr.begin(-1, -1, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(id)
		return d.Seconds(), err
	}
	var err error
	if lr.readS, err = timeIt("hin.read", func() (err error) {
		lr.g, lr.lin, err = loadGraph(in.graphPath)
		return err
	}); err != nil {
		return nil, err
	}
	var wix *walk.Index
	if w.lazy {
		lr.walkOpenS, err = timeIt("walk.open", func() (err error) {
			wix, err = walk.OpenLazyFile(in.walksPath, lr.g, walk.LazyOptions{CacheBytes: lazyCacheBytes})
			return err
		})
	} else {
		lr.walkBuildS, err = timeIt("walk.build", func() (err error) {
			wix, err = walk.Build(lr.g, walk.Options{NumWalks: serveNumWalks, Length: serveWalkLength,
				Seed: serveSeed, Parallel: true})
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	defer wix.Close()
	lr.meetBuildS, _ = timeIt("walk.meet_build", func() error {
		walk.BuildMeetIndex(wix)
		return nil
	})
	lr.viewUS = viewCost(wix, ops)
	if err := lr.refreshChain(wix, ops, in.relation); err != nil {
		return nil, err
	}
	lr.kernelBuildS, err = timeIt("semantic.kernel_build", func() error {
		_, err := semantic.NewKernel(lr.lin, lr.g.NumNodes(), semantic.KernelOptions{})
		return err
	})
	return lr, err
}

// viewCost is the mean time of one walk.Index.View over the replay's
// read nodes, in order, in µs. On a lazy store a view may decode a block.
func viewCost(wix *walk.Index, ops []op) float64 {
	g := wix.Graph()
	var nodes []hin.NodeID
	for _, o := range ops {
		if o.isBatch {
			continue
		}
		u, _ := g.NodeByName(o.req.u)
		nodes = append(nodes, u)
		if v, ok := g.NodeByName(o.req.v); ok && o.req.ep != "topk" {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) == 0 {
		return 0
	}
	sink := 0
	t0 := time.Now()
	for _, v := range nodes {
		sink += wix.View(v).Len(0)
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d) / float64(time.Microsecond) / float64(len(nodes))
}

// refreshChain replays the ops' batches on the walk layer alone and
// times walk.Index.Refresh on each. The resampling seed differs per epoch,
// as in Mutator.Commit; the timing does not depend on its value.
func (lr *layerRun) refreshChain(wix *walk.Index, ops []op, label string) error {
	g := wix.Graph()
	epoch := int64(0)
	for _, o := range ops {
		if !o.isBatch {
			continue
		}
		epoch++
		newG, err := applyBatch(g, o.batch, label)
		if err != nil {
			return err
		}
		changed, err := hin.ChangedInNeighborhoodsGrown(g, newG)
		if err != nil {
			return err
		}
		t0 := time.Now()
		next, _, err := wix.Refresh(newG, changed, serveSeed+epoch)
		lr.refresh = append(lr.refresh, time.Since(t0))
		if err != nil {
			return err
		}
		g, wix = newG, next
	}
	return nil
}

// applyBatch rebuilds g with one edge added or removed, as the
// Mutator's graph rebuild does.
func applyBatch(g *hin.Graph, b batch, label string) (*hin.Graph, error) {
	u, ok1 := g.NodeByName(b.from)
	v, ok2 := g.NodeByName(b.to)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("batch names unknown: %+v", b)
	}
	bld := hin.NewBuilder()
	for x := 0; x < g.NumNodes(); x++ {
		bld.AddNode(g.NodeName(hin.NodeID(x)), g.NodeLabel(hin.NodeID(x)))
	}
	g.Edges(func(e hin.Edge) bool {
		if b.add || e.From != u || e.To != v || e.Label != label {
			bld.AddEdge(e.From, e.To, e.Label, e.Weight)
		}
		return true
	})
	if b.add {
		bld.AddEdge(u, v, label, 1)
	}
	return bld.Build()
}

// freeMemory returns garbage to the OS between phases so one phase's
// heap does not tax the next one's timings.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
