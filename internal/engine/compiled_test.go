package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/adaptive"
	"dyncomp/internal/engine"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// The compiled-evaluator acceptance property: on every registered
// scenario, every registered engine produces bit-exact evolution
// instants from the compiled evaluation program, against the reference
// executor, on a first run and again on a second run of the same shape —
// the second is served from the derivation cache and from evaluators
// pooled by the first run's Release, so any state left behind in a
// recycled ring would show here. This covers the equivalent model's Step
// loop, the hybrid engine's wave evaluation with SetValue/PeekDelayed on
// the boundary, and the adaptive engine's SeedHistory resume windows.
func TestCompiledEvaluatorBitExactEverywhere(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range zoo.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rr, err := ref.Run(ctx, sc.Build(testParams), engine.Options{Record: true})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, name := range engine.Names() {
				if name == "reference" {
					continue
				}
				eng, err := engine.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				group := sc.GroupFor(name, testParams)
				if name == "hybrid" && group == nil {
					continue
				}
				var traces [2]*observe.Trace
				for i := range traces {
					r, err := eng.Run(ctx, sc.Build(testParams), engine.Options{
						Record:        true,
						AbstractGroup: group,
					})
					if err != nil {
						t.Errorf("%s (run %d) on %s: %v", name, i+1, sc.Name, err)
						continue
					}
					traces[i] = r.Trace
					if err := observe.CompareInstants(rr.Trace, r.Trace); err != nil {
						t.Errorf("%s (run %d) differs from reference on %s: %v", name, i+1, sc.Name, err)
					}
				}
				if traces[0] != nil && traces[1] != nil {
					if err := observe.CompareInstants(traces[0], traces[1]); err != nil {
						t.Errorf("%s: second run differs from first on %s: %v", name, sc.Name, err)
					}
				}
			}
		})
	}
}

// TestCompiledAdaptiveHotSwitchResume drives the adaptive engine through
// real detailed→abstract→detailed transitions on the phase-changing
// workload and checks the compiled evaluator, seeded from the live trace
// at every hot switch, reproduces the reference executor's evolution.
func TestCompiledAdaptiveHotSwitchResume(t *testing.T) {
	sc, err := zoo.LookupScenario("phased")
	if err != nil {
		t.Fatal(err)
	}
	params := zoo.ParamMap{"tokens": 120, "seed": 5}
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ref.Run(context.Background(), sc.Build(params), engine.Options{Record: true})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	res, err := adaptive.Run(context.Background(), sc.Build(params), engine.Options{Record: true, WindowK: 4})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace
	if res.Switches == 0 || res.Fallbacks == 0 {
		t.Fatalf("workload did not exercise hot switching: %d switches, %d fallbacks", res.Switches, res.Fallbacks)
	}
	if err := observe.CompareInstants(rr.Trace, trace); err != nil {
		t.Fatalf("compiled adaptive trace differs from reference: %v", err)
	}
}
