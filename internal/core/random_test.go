package core

import (
	"context"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	uni "dyncomp/internal/engine"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// Property-based integration test: over many randomized architectures
// (pipelines of single stages and fork-join diamonds, mixed channel
// protocols, shared and dedicated resources, data-dependent durations),
// the equivalent model must reproduce the reference executor's evolution
// instants bit-exact — with and without arc reduction.
func TestRandomArchitecturesExact(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		spec := zoo.RandomSpec{Seed: int64(seed), Tokens: 60}

		bres, err := baseline.Run(context.Background(), zoo.Random(spec), uni.Options{Record: true})
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		bt := bres.Trace

		for _, reduce := range []bool{false, true} {
			dres, err := derive.Derive(zoo.Random(spec), derive.Options{Reduce: reduce})
			if err != nil {
				t.Fatalf("seed %d derive(reduce=%v): %v", seed, reduce, err)
			}
			m, err := New(dres)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			et := observe.NewTrace("equivalent")
			if _, err := m.Run(Options{Trace: et}); err != nil {
				t.Fatalf("seed %d equivalent(reduce=%v): %v", seed, reduce, err)
			}
			if err := observe.CompareInstants(bt, et); err != nil {
				t.Fatalf("seed %d (reduce=%v): accuracy violated: %v", seed, reduce, err)
			}
		}
	}
}

// The same property for resource activities (start, end, ops): the
// observation-time reconstruction must match the simulated activities.
func TestRandomArchitecturesActivitiesExact(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		spec := zoo.RandomSpec{Seed: int64(seed) + 1000, Tokens: 40}
		bres, err := baseline.Run(context.Background(), zoo.Random(spec), uni.Options{Record: true})
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		bt := bres.Trace
		dres, err := derive.Derive(zoo.Random(spec), derive.Options{})
		if err != nil {
			t.Fatalf("seed %d derive: %v", seed, err)
		}
		m, err := New(dres)
		if err != nil {
			t.Fatal(err)
		}
		et := observe.NewTrace("equivalent")
		if _, err := m.Run(Options{Trace: et}); err != nil {
			t.Fatalf("seed %d equivalent: %v", seed, err)
		}
		for _, r := range bt.Resources() {
			ba, ea := bt.Activities(r), et.Activities(r)
			if len(ba) != len(ea) {
				t.Fatalf("seed %d %s: %d vs %d activities", seed, r, len(ba), len(ea))
			}
			bSet := map[observe.Activity]int{}
			for _, a := range ba {
				bSet[a]++
			}
			for _, a := range ea {
				if bSet[a] == 0 {
					t.Fatalf("seed %d %s: activity %+v not in baseline", seed, r, a)
				}
				bSet[a]--
			}
		}
	}
}
