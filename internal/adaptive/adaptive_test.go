package adaptive

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/workload"
	"dyncomp/internal/zoo"
)

// refTrace runs the pure reference executor on a fresh architecture
// instance and returns its trace and stats.
func refTrace(t *testing.T, build func() *model.Architecture) (*observe.Trace, *engine.Result) {
	t.Helper()
	res, err := baseline.Run(context.Background(), build(), engine.Options{Record: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res.Trace, res
}

// modeIters counts the iterations a run spent in each mode.
func modeIters(res *engine.Result) (detailed, abstract int) {
	for _, ph := range res.Phases {
		if ph.Mode == engine.ModeAbstract {
			abstract += ph.EndK - ph.StartK
		} else {
			detailed += ph.EndK - ph.StartK
		}
	}
	return detailed, abstract
}

// scenarios is the full test matrix: every scenario must produce a
// bit-exact adaptive trace, whatever mix of detailed and abstract phases
// the controller chooses.
func scenarios() map[string]func() *model.Architecture {
	return map[string]func() *model.Architecture{
		"didactic-random": func() *model.Architecture {
			// Per-iteration random sizes: never steady, stays detailed.
			return zoo.Didactic(zoo.DidacticSpec{Tokens: 120, Period: 1200, Seed: 41})
		},
		"didactic-constant": func() *model.Architecture {
			// One steady regime: a single switch, no fallback.
			return zoo.Didactic(zoo.DidacticSpec{Tokens: 200, Period: 1200,
				Sizes: func(int) int64 { return 128 }})
		},
		"didactic-eager-constant": func() *model.Architecture {
			// Eager source: rate set purely by backpressure.
			return zoo.Didactic(zoo.DidacticSpec{Tokens: 200,
				Sizes: func(int) int64 { return 96 }})
		},
		"phased": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 600, Period: 1100, Seed: 7})
		},
		"phased-eager": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Seed: 11})
		},
		"phased-fifo": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: 13, UseFIFO: true})
		},
		"phased-fifo-eager": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 300, Seed: 17, UseFIFO: true})
		},
		"phased-chain": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 300, Period: 1300, Seed: 19, Stages: 3})
		},
		"pipeline-steady": func() *model.Architecture {
			return zoo.Pipeline(zoo.PipelineSpec{XSize: 8, Tokens: 200, Period: 600, Seed: 0})
		},
	}
}

// TestBitExactVsReference is the acceptance guard: on every scenario the
// adaptive engine's trace must agree bit-exact with the reference
// executor, for several steady-state windows (small windows force many
// phase boundaries and exercise both switch directions heavily).
func TestBitExactVsReference(t *testing.T) {
	for name, build := range scenarios() {
		t.Run(name, func(t *testing.T) {
			want, _ := refTrace(t, build)
			for _, w := range []int{2, 3, 5, 8, 100000} {
				res, err := Run(context.Background(), build(), engine.Options{Record: true, WindowK: w})
				if err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
				if err := observe.CompareInstants(want, res.Trace); err != nil {
					t.Fatalf("window %d: trace differs: %v", w, err)
				}
				if detailed, abstract := modeIters(res); detailed+abstract != res.Iterations {
					t.Fatalf("window %d: iteration accounting: %d + %d != %d",
						w, detailed, abstract, res.Iterations)
				}
			}
		})
	}
}

// TestResumeAtEveryBoundary splits a detailed-only run of every
// scenario into two kernels at each early iteration boundary and a few
// later ones: the second kernel resumes from the first one's recorded
// history through the statement floors alone, and the joined trace must
// equal the reference executor's. Rotation-gate floors sit on a Read
// statement, FIFO-backpressure floors on a Write statement or a source
// emission: the rendezvous pipeline must exercise the former, the FIFO
// scenario the latter. Small random architectures join the matrix
// because their FIFOs fill, so writer-side floors actually bind there.
func TestResumeAtEveryBoundary(t *testing.T) {
	archs := scenarios()
	for seed := int64(1); seed <= 8; seed++ {
		archs[fmt.Sprintf("random-%d", seed)] = func() *model.Architecture {
			return zoo.Random(zoo.RandomSpec{Seed: seed, Tokens: 60})
		}
	}
	cache := derive.NewCache()
	rotation, backpressure := map[string]bool{}, map[string]bool{}
	for name, build := range archs {
		want, _ := refTrace(t, build)
		n, err := build().Iterations()
		if err != nil {
			t.Fatal(err)
		}
		boundaries := []int{n / 3, n / 2, n - 1}
		for k := 1; k < 40; k++ {
			boundaries = append(boundaries, k)
		}
		for _, k := range boundaries {
			r, err := newRunner(build(), engine.Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.runChunk(0, k); err != nil {
				t.Fatal(err)
			}
			floors, srcFloors := r.floorsFor(k)
			for key := range floors {
				if _, ok := key.f.Body[key.stmt].(model.Read); ok {
					rotation[name] = true
				} else {
					backpressure[name] = true
				}
			}
			if len(srcFloors) > 0 {
				backpressure[name] = true
			}
			if _, err := r.runChunk(k, n); err != nil {
				t.Fatal(err)
			}
			if err := observe.CompareInstants(want, r.rec); err != nil {
				t.Fatalf("%s resumed at %d: trace differs: %v", name, k, err)
			}
		}
	}
	if !rotation["pipeline-steady"] {
		t.Error("pipeline-steady never resumed across a rotation-gate floor")
	}
	if !backpressure["phased-fifo"] {
		t.Error("phased-fifo never resumed across a FIFO-backpressure floor")
	}
}

// TestActivitiesMatchReference checks that the reconstructed resource
// activities (not only the instants) agree with the reference executor.
// Recording order within a resource differs between engines (the
// simulator interleaves by start time, the computed reconstruction goes
// iteration by iteration — same as the equivalent model), so activities
// are compared as sets keyed by (label, iteration).
func TestActivitiesMatchReference(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 300, Period: 1100, Seed: 7})
	}
	want, _ := refTrace(t, build)
	ares, err := Run(context.Background(), build(), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	got := ares.Trace
	key := func(a observe.Activity) string { return fmt.Sprintf("%s/%d", a.Label, a.K) }
	for _, res := range want.Resources() {
		wa, ga := want.Activities(res), got.Activities(res)
		if len(wa) != len(ga) {
			t.Fatalf("resource %s: %d vs %d activities", res, len(wa), len(ga))
		}
		byKey := make(map[string]observe.Activity, len(wa))
		for _, a := range wa {
			byKey[key(a)] = a
		}
		for _, a := range ga {
			if w, ok := byKey[key(a)]; !ok || w != a {
				t.Fatalf("resource %s activity %+v: reference has %+v", res, a, w)
			}
		}
	}
}

// TestEventsSavedAndFallbacks is the paper-facing acceptance criterion:
// on the phase-changing workload the adaptive engine executes at least
// 50% fewer kernel events than the reference executor while remaining
// bit-exact, and the run exercises both switch directions.
func TestEventsSavedAndFallbacks(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 1200, Period: 1100, Seed: 7})
	}
	want, ref := refTrace(t, build)
	res, err := Run(context.Background(), build(), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(want, res.Trace); err != nil {
		t.Fatalf("trace differs: %v", err)
	}
	refEvents := ref.Events
	if res.Events > refEvents/2 {
		t.Fatalf("adaptive paid %d kernel events, want <= half of reference's %d",
			res.Events, refEvents)
	}
	if res.Switches < 1 {
		t.Fatalf("no detailed→abstract switch: %+v", res)
	}
	if res.Fallbacks < 1 {
		t.Fatalf("no abstract→detailed fallback: %+v", res)
	}
	if detailed, abstract := modeIters(res); abstract <= detailed {
		t.Fatalf("abstract share too small: %d abstract vs %d detailed",
			abstract, detailed)
	}
}

// TestPhaseAccounting checks the per-phase statistics invariants: spans
// are contiguous and alternate modes, abstract phases pay zero kernel
// events, and the events sum matches the total.
func TestPhaseAccounting(t *testing.T) {
	res, err := Run(context.Background(), zoo.Phased(zoo.PhasedSpec{Tokens: 600, Period: 1100, Seed: 7}), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) < 4 {
		t.Fatalf("expected several phases, got %d", len(res.Phases))
	}
	next := 0
	var events int64
	for i, ph := range res.Phases {
		if ph.StartK != next {
			t.Fatalf("phase %d starts at %d, want %d", i, ph.StartK, next)
		}
		if ph.EndK <= ph.StartK {
			t.Fatalf("phase %d is empty: %+v", i, ph)
		}
		if i > 0 && ph.Mode == res.Phases[i-1].Mode {
			t.Fatalf("phases %d and %d share mode %v", i-1, i, ph.Mode)
		}
		if ph.Mode == engine.ModeAbstract && (ph.Events != 0 || ph.Activations != 0) {
			t.Fatalf("abstract phase %d paid kernel work: %+v", i, ph)
		}
		next = ph.EndK
		events += ph.Events
	}
	if next != res.Iterations {
		t.Fatalf("phases end at %d, want %d", next, res.Iterations)
	}
	if events != res.Events {
		t.Fatalf("phase events sum %d != total %d", events, res.Events)
	}
}

// TestDeterminism requires two adaptive runs to agree exactly — traces,
// kernel work and phase plan.
func TestDeterminism(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 500, Period: 1100, Seed: 23, UseFIFO: true})
	}
	r1, s1, err := run(context.Background(), build(), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := run(context.Background(), build(), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(r1.Trace, r2.Trace); err != nil {
		t.Fatalf("runs differ: %v", err)
	}
	if s1 != s2 || r1.Switches != r2.Switches || r1.Fallbacks != r2.Fallbacks {
		t.Fatalf("stats differ: %+v %+v vs %+v %+v", s1, r1, s2, r2)
	}
	if len(r1.Phases) != len(r2.Phases) {
		t.Fatalf("phase plans differ: %d vs %d", len(r1.Phases), len(r2.Phases))
	}
	for i := range r1.Phases {
		if r1.Phases[i].Mode != r2.Phases[i].Mode ||
			r1.Phases[i].StartK != r2.Phases[i].StartK ||
			r1.Phases[i].EndK != r2.Phases[i].EndK {
			t.Fatalf("phase %d differs: %+v vs %+v", i, r1.Phases[i], r2.Phases[i])
		}
	}
}

// TestSharedCacheRebinds verifies that the abstract engine obtains its
// graphs through the structure-keyed cache: across two runs sharing a
// cache, only the first derivation misses and later switches re-bind.
func TestSharedCacheRebinds(t *testing.T) {
	cache := derive.NewCache()
	build := func(seed int64) *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: seed})
	}
	before := derive.Calls()
	r1, err := Run(context.Background(), build(7), engine.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), build(8), engine.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if got := derive.Calls() - before; got != 1 {
		t.Fatalf("Derive ran %d times across two adaptive runs, want 1", got)
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits < int64(r1.Switches) {
		t.Fatalf("cache stats: %d hits, %d misses (switches %d)", hits, misses, r1.Switches)
	}
}

// TestTimeLimitTruncates checks that a simulated-time limit stops the
// run early at iteration granularity.
func TestTimeLimitTruncates(t *testing.T) {
	full, err := Run(context.Background(), zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: 7}), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A limit landing inside a detailed chunk (the first window runs
	// detailed) must not report iterations the kernel never completed.
	for _, div := range []sim.Time{4, 100} {
		lim, err := Run(context.Background(), zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: 7}),
			engine.Options{Record: true, LimitNs: int64(sim.Time(full.FinalTimeNs) / div)})
		if err != nil {
			t.Fatal(err)
		}
		tr := lim.Trace
		if lim.Iterations >= full.Iterations {
			t.Fatalf("limit/%d did not truncate: %d vs %d iterations", div, lim.Iterations, full.Iterations)
		}
		if detailed, abstract := modeIters(lim); detailed+abstract != lim.Iterations {
			t.Fatalf("limit/%d: iteration accounting: %d + %d != %d",
				div, detailed, abstract, lim.Iterations)
		}
		for _, label := range tr.Labels() {
			if n := len(tr.Instants(label)); n < lim.Iterations {
				t.Fatalf("limit/%d: %d iterations reported but label %q evolved only %d times",
					div, lim.Iterations, label, n)
			}
		}
	}
}

// TestRejectsInvalid propagates model validation errors.
func TestRejectsInvalid(t *testing.T) {
	a := model.NewArchitecture("broken")
	a.AddChannel("M", model.Rendezvous, 0)
	if _, err := Run(context.Background(), a, engine.Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestPhaseStream pins the phase-walk semantics the scenarios rely on.
func TestPhaseStream(t *testing.T) {
	s := workload.PhaseStream(1, []workload.Phase{
		{Len: 3, Size: 10},
		{Len: 2, Size: 50, Span: 5},
		{Len: 1, Size: 7},
	})
	for k := 0; k < 3; k++ {
		if s(k) != 10 {
			t.Fatalf("s(%d) = %d, want 10", k, s(k))
		}
	}
	for k := 3; k < 5; k++ {
		if v := s(k); v < 50 || v >= 55 {
			t.Fatalf("s(%d) = %d, want in [50,55)", k, v)
		}
	}
	// The last phase is sticky.
	for k := 5; k < 20; k++ {
		if s(k) != 7 {
			t.Fatalf("s(%d) = %d, want 7", k, s(k))
		}
	}
	if s(1) != 10 || s(3) != s(3) {
		t.Fatal("stream not deterministic")
	}
}
