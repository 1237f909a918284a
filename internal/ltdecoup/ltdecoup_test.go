package ltdecoup

import (
	"context"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/engine"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/zoo"
)

func TestQuantumTradeoff(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 400, Period: 900, Seed: 6}
	bres, err := baseline.Run(context.Background(), zoo.Didactic(spec), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	bt := bres.Trace

	type point struct {
		quantum int64
		err     float64
		acts    int64
	}
	var pts []point
	for _, q := range []int64{100, 10_000, 1_000_000} {
		lt := observe.NewTrace("lt")
		lres, err := Run(zoo.Didactic(spec), Options{Quantum: sim.Time(q), Trace: lt})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{
			quantum: q,
			err:     observe.MeanAbsInstantError(bt, lt),
			acts:    lres.Stats.Activations,
		})
	}
	// Larger quanta must not increase kernel work and must not improve
	// accuracy; the extremes must differ clearly in both dimensions.
	for i := 1; i < len(pts); i++ {
		if pts[i].acts > pts[i-1].acts {
			t.Fatalf("quantum %d uses more activations (%d) than quantum %d (%d)",
				pts[i].quantum, pts[i].acts, pts[i-1].quantum, pts[i-1].acts)
		}
	}
	if pts[len(pts)-1].err <= pts[0].err {
		t.Fatalf("error did not grow with quantum: %+v", pts)
	}
	if pts[len(pts)-1].acts >= bres.Activations {
		t.Fatalf("large quantum saved no events: %d vs baseline %d",
			pts[len(pts)-1].acts, bres.Activations)
	}
	if pts[0].err == 0 {
		// Even small quanta lose the rendezvous backpressure; with a
		// backpressured workload (period 900 < service time) some error
		// must appear.
		t.Fatalf("loosely-timed run is unexpectedly exact: %+v", pts)
	}
}

func TestTokenCountsPreserved(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 300, Period: 900, Seed: 2}
	lt := observe.NewTrace("lt")
	if _, err := Run(zoo.Didactic(spec), Options{Quantum: 50_000, Trace: lt}); err != nil {
		t.Fatal(err)
	}
	// Functional behaviour (token counts, ordering) survives decoupling;
	// only timing degrades.
	for _, ch := range []string{"M1", "M2", "M3", "M4", "M5", "M6"} {
		xs := lt.Instants(ch)
		if len(xs) != 300 {
			t.Fatalf("%s: %d transfers, want 300", ch, len(xs))
		}
		for k := 1; k < len(xs); k++ {
			if xs[k] < xs[k-1] {
				t.Fatalf("%s: instants out of order at %d", ch, k)
			}
		}
	}
}

func TestRejectsBadQuantum(t *testing.T) {
	if _, err := Run(zoo.Didactic(zoo.DidacticSpec{Tokens: 1, Period: 1, Seed: 1}), Options{Quantum: 0}); err == nil {
		t.Fatal("expected error for zero quantum")
	}
}
