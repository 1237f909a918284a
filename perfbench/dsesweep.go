package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// dseGrid is the Fig. 5 pipeline sweep: two structural shapes (X sizes)
// × four source periods × eight token-stream seeds, every graph padded to
// about 3000 nodes.
type dseGrid struct {
	axes   []sweep.Axis
	tokens int
	pad    int
}

const (
	dseWorkers = 2
	dseBatch   = 16
)

func newDSEGrid(cfg config) dseGrid {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x647365))
	g := dseGrid{tokens: 400, pad: 3000}
	if cfg.tiny {
		g.tokens, g.pad = 40, 200
	}
	periods := make([]int64, 4)
	for i := range periods {
		periods[i] = 560 + 40*int64(i) + rng.Int64N(40)
	}
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = 1 + rng.Int64N(1<<20)
	}
	g.axes = []sweep.Axis{
		{Name: "xsize", Values: []int64{6, 10}},
		{Name: "period", Values: periods},
		{Name: "seed", Values: seeds},
	}
	return g
}

func (g dseGrid) gen(p sweep.Point) (*model.Architecture, error) {
	return zoo.Pipeline(zoo.PipelineSpec{
		XSize:  int(p.Get("xsize", 6)),
		Tokens: g.tokens,
		Period: maxplus.T(p.Get("period", 600)),
		Seed:   p.Get("seed", 1),
	}), nil
}

// options returns the sweep options of the workload on cache; a zero
// batch width selects the scalar per-point path.
func (g dseGrid) options(cache *derive.Cache, batch int) sweep.Options {
	return sweep.Options{
		Workers:    dseWorkers,
		Engine:     "equivalent",
		BatchWidth: batch,
		Cache:      cache,
		Derive:     derive.Options{PadNodes: g.pad},
	}
}

// cohort returns the architectures of the first 16 grid points, which
// share one structural shape (the first X size).
func (g dseGrid) cohort() ([]*model.Architecture, error) {
	pts, err := sweep.Grid(g.axes)
	if err != nil {
		return nil, err
	}
	archs := make([]*model.Architecture, dseBatch)
	for i := range archs {
		if archs[i], err = g.gen(pts[i]); err != nil {
			return nil, err
		}
	}
	return archs, nil
}

// pointCounts are the deterministic outputs of one grid point.
type pointCounts struct {
	finalNs     int64
	iterations  int
	activations int64
	events      int64
}

func pointCountsOf(s sweep.PointStats) pointCounts {
	return pointCounts{s.FinalTimeNs, s.Iterations, s.Activations, s.Events}
}

// dseSample is the fixed sample of grid indices re-run through the
// scalar per-point path.
var dseSample = []int{0, 21, 42, 63}

// dseSweep is the dse-sweep workload: one caller running the whole grid
// through sweep.RunContext, batched, again and again.
type dseSweep struct {
	grid    dseGrid
	cache   *derive.Cache
	want    []pointCounts // the first batched sweep's outputs
	scalar  map[int]pointCounts
	batches int
}

func setupDSESweep(ctx context.Context, cfg config, t *tally) (instance, error) {
	w := &dseSweep{grid: newDSEGrid(cfg), cache: derive.NewCache(), scalar: map[int]pointCounts{}}
	res, err := sweep.RunContext(ctx, w.grid.axes, w.grid.gen, w.grid.options(w.cache, dseBatch))
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	for _, pr := range res.Points {
		if pr.Err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", pr.Err)
		}
		w.want = append(w.want, pointCountsOf(pr.Run))
	}
	w.batches = res.Stats.Batches
	idx := make([]int, 0, len(dseSample))
	for _, i := range dseSample {
		if i < len(w.want) {
			idx = append(idx, i)
		}
	}
	sres, err := sweep.RunIndicesContext(ctx, w.grid.axes, idx, w.grid.gen, w.grid.options(w.cache, 0))
	if err != nil {
		return nil, fmt.Errorf("scalar sample: %w", err)
	}
	for k, pr := range sres.Points {
		if pr.Err != nil {
			return nil, fmt.Errorf("scalar sample: %w", pr.Err)
		}
		w.scalar[idx[k]] = pointCountsOf(pr.Run)
		t.op(same(fmt.Sprintf("grid point %d: scalar vs batched", idx[k]), w.scalar[idx[k]], w.want[idx[k]]))
	}
	return w, nil
}

func (w *dseSweep) run(ctx context.Context, d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	h0, m0 := w.cache.Stats()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		root := tr.begin(ref{}, "check", "dse-sweep.op")
		sp := tr.begin(root, "sweep", "sweep.RunContext")
		t0 := time.Now()
		res, err := sweep.RunContext(ctx, w.grid.axes, w.grid.gen, w.grid.options(w.cache, dseBatch))
		lat := time.Since(t0)
		tr.end(sp)
		if err != nil {
			s.op(fmt.Errorf("sweep: %w", err))
			tr.end(root)
			continue
		}
		s.calls = append(s.calls, lat)
		s.op(w.check(res))
		var iters int64
		for _, pr := range res.Points {
			iters += int64(pr.Run.Iterations)
		}
		n := int64(len(res.Points))
		s.iters += iters
		s.points += n
		s.configs += n
		s.addRound(0, round{dur: lat, calls: 1, points: n, iters: iters})
		tr.end(root)
	}
	s.wall = time.Since(start)
	h1, m1 := w.cache.Stats()
	s.hits, s.misses = h1-h0, m1-m0
	return s, nil
}

// check compares a batched sweep with the first one, point by point,
// with the scalar per-point sample, and its batch count with the first
// sweep's.
func (w *dseSweep) check(res *sweep.Result) error {
	if err := same("grid points", len(res.Points), len(w.want)); err != nil {
		return err
	}
	if err := same("batches", res.Stats.Batches, w.batches); err != nil {
		return err
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			return fmt.Errorf("grid point %d: %w", i, pr.Err)
		}
		got := pointCountsOf(pr.Run)
		if err := same(fmt.Sprintf("grid point %d", i), got, w.want[i]); err != nil {
			return err
		}
		if sc, ok := w.scalar[i]; ok {
			if err := same(fmt.Sprintf("grid point %d: batched vs scalar", i), got, sc); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *dseSweep) close() {}
