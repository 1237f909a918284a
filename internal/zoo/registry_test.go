package zoo_test

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/hybrid"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// The built-in scenarios must all be registered, buildable with default
// parameters, and valid.
func TestRegisteredScenariosBuildValidModels(t *testing.T) {
	names := zoo.ScenarioNames()
	for _, want := range []string{"chain", "didactic", "forkjoin", "phased", "pipeline", "random"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("scenario %q not registered (have %v)", want, names)
		}
	}
	for _, sc := range zoo.Scenarios() {
		a := sc.Build(zoo.ParamMap{"tokens": 5, "symbols": 5})
		if a == nil {
			t.Fatalf("scenario %q built nil architecture", sc.Name)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, err)
		}
	}
}

// ParamNames parses ParamsHelp; CheckParams rejects unknown parameter
// names (the builders silently default absent ones, so a typo would
// otherwise vanish) and accepts every advertised one.
func TestParamNamesAndCheckParams(t *testing.T) {
	sc, err := zoo.LookupScenario("didactic")
	if err != nil {
		t.Fatal(err)
	}
	names := sc.ParamNames()
	if len(names) == 0 {
		t.Fatal("didactic advertises no parameters")
	}
	all := zoo.ParamMap{}
	for _, n := range names {
		all[n] = 1
	}
	if err := sc.CheckParams(all); err != nil {
		t.Fatalf("advertised params rejected: %v", err)
	}
	if err := sc.CheckParams(zoo.ParamMap{"tokens": 10, "bogus": 1}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if err := sc.CheckParams(nil); err != nil {
		t.Fatalf("empty params rejected: %v", err)
	}
	if got := (zoo.Scenario{}).ParamNames(); got != nil {
		t.Fatalf("empty ParamsHelp parsed to %v, want nil", got)
	}
}

func TestLookupScenario(t *testing.T) {
	if _, err := zoo.LookupScenario("pipeline"); err != nil {
		t.Fatal(err)
	}
	if _, err := zoo.LookupScenario("no-such"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("empty name", func() { zoo.Register(zoo.Scenario{}) })
	expectPanic("nil build", func() { zoo.Register(zoo.Scenario{Name: "x"}) })
	expectPanic("duplicate", func() {
		sc, err := zoo.LookupScenario("pipeline")
		if err != nil {
			t.Fatal(err)
		}
		zoo.Register(sc)
	})
}

// The fork-join scenario: structure sanity, bit-exact equivalence, and a
// usable hybrid group.
func TestForkJoin(t *testing.T) {
	spec := zoo.ForkJoinSpec{Workers: 4, Tokens: 30, Period: 700, Seed: 5}
	a := zoo.ForkJoin(spec)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Producer + N workers + gather.
	if got, want := len(a.Functions), 4+2; got != want {
		t.Fatalf("functions = %d, want %d", got, want)
	}

	bres, err := baseline.Run(context.Background(), zoo.ForkJoin(spec), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	bt := bres.Trace
	// Every worker must have executed once per token on its own resource.
	for i := 1; i <= spec.Workers; i++ {
		acts := bt.Activities(fmt.Sprintf("Pw%d", i))
		if len(acts) != spec.Tokens {
			t.Fatalf("worker %d executed %d times, want %d", i, len(acts), spec.Tokens)
		}
	}

	dres, err := derive.Derive(zoo.ForkJoin(spec), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(dres)
	if err != nil {
		t.Fatal(err)
	}
	et := observe.NewTrace("eq")
	if _, err := m.Run(core.Options{Trace: et}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(bt, et); err != nil {
		t.Fatalf("fork-join not bit-exact: %v", err)
	}

	sc, err := zoo.LookupScenario("forkjoin")
	if err != nil {
		t.Fatal(err)
	}
	group := sc.HybridGroup(zoo.ParamMap{"workers": int64(spec.Workers)})
	hres, err := hybrid.Run(context.Background(), zoo.ForkJoin(spec), engine.Options{AbstractGroup: group, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	ht := hres.Trace
	if err := observe.CompareInstants(bt, ht); err != nil {
		t.Fatalf("fork-join hybrid group not bit-exact: %v", err)
	}
}

func TestForkJoinRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero workers")
		}
	}()
	zoo.ForkJoin(zoo.ForkJoinSpec{Workers: 0, Tokens: 1})
}
