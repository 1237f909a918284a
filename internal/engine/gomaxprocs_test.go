package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// sameTrace reports the first difference between two recorded traces:
// label and resource order, every instant and every activity, in
// recording order.
func sameTrace(a, b *observe.Trace) error {
	if !slices.Equal(a.Labels(), b.Labels()) {
		return fmt.Errorf("labels %v vs %v", a.Labels(), b.Labels())
	}
	for _, l := range a.Labels() {
		if !slices.Equal(a.Instants(l), b.Instants(l)) {
			return fmt.Errorf("instants of %q differ", l)
		}
	}
	if !slices.Equal(a.Resources(), b.Resources()) {
		return fmt.Errorf("resources %v vs %v", a.Resources(), b.Resources())
	}
	for _, r := range a.Resources() {
		if !slices.Equal(a.Activities(r), b.Activities(r)) {
			return fmt.Errorf("activities of %q differ", r)
		}
	}
	return nil
}

// Outputs must not depend on GOMAXPROCS. At 1, 2 and 8 processors every
// engine × scenario run records the trace (and kernel counters) of the
// GOMAXPROCS=1 run, and a sweep on a GOMAXPROCS-sized worker pool —
// per-point and batched at widths 1, 8 and 32 — yields the per-point
// sweep's points at GOMAXPROCS=1. Wall times are the only excluded field.
func TestOutputsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()

	type runKey struct{ scenario, engine string }
	runAll := func(t *testing.T) map[runKey]*engine.Result {
		out := map[runKey]*engine.Result{}
		for _, sc := range zoo.Scenarios() {
			for _, name := range engine.Names() {
				group := sc.GroupFor(name, testParams)
				if name == "hybrid" && group == nil {
					continue // no canonical group to abstract
				}
				eng, err := engine.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(ctx, sc.Build(testParams), engine.Options{Record: true, AbstractGroup: group})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, sc.Name, err)
				}
				out[runKey{sc.Name, name}] = res
			}
		}
		return out
	}

	axes := []sweep.Axis{
		{Name: "stages", Values: []int64{1, 2}},
		{Name: "period", Values: []int64{500, 900}},
		{Name: "seed", Values: []int64{1, 2, 3}},
	}
	gen := func(p sweep.Point) (*model.Architecture, error) {
		return zoo.DidacticChain(int(p.Get("stages", 1)), zoo.DidacticSpec{
			Tokens: 25,
			Period: maxplus.T(p.Get("period", 1000)),
			Seed:   p.Get("seed", 1),
		}), nil
	}
	runSweep := func(t *testing.T, width int) *sweep.Result {
		res, err := sweep.RunContext(ctx, axes, gen, sweep.Options{Record: true, BatchWidth: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return res
	}

	var wantRuns map[runKey]*engine.Result
	var wantSweep *sweep.Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runs := runAll(t)
			if wantRuns == nil {
				wantRuns = runs
			}
			for k, want := range wantRuns {
				got := runs[k]
				if got.Activations != want.Activations || got.Events != want.Events ||
					got.FinalTimeNs != want.FinalTimeNs || got.Iterations != want.Iterations ||
					got.Switches != want.Switches || got.Fallbacks != want.Fallbacks {
					t.Errorf("%s on %s: counters %+v, want %+v", k.engine, k.scenario, got, want)
				}
				if err := sameTrace(want.Trace, got.Trace); err != nil {
					t.Errorf("%s on %s: trace differs from GOMAXPROCS=1: %v", k.engine, k.scenario, err)
				}
			}

			if wantSweep == nil {
				wantSweep = runSweep(t, 0)
			}
			for _, width := range []int{0, 1, 8, 32} {
				got := runSweep(t, width)
				for i, want := range wantSweep.Points {
					p := got.Points[i]
					if p.Err != nil {
						t.Fatalf("width %d point %d (%s): %v", width, i, p.Point, p.Err)
					}
					w, g := want.Run, p.Run
					w.Wall, g.Wall = 0, 0
					if w != g {
						t.Errorf("width %d point %d (%s): %+v, want %+v", width, i, p.Point, g, w)
					}
					if err := sameTrace(want.Trace, p.Trace); err != nil {
						t.Errorf("width %d point %d (%s): trace differs from per-point sweep: %v", width, i, p.Point, err)
					}
				}
			}
		})
	}
}
