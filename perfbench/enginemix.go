package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"dyncomp"
	"dyncomp/internal/zoo"
)

// mixInput is one of the paper's own inputs: a registered scenario with
// its parameters.
type mixInput struct {
	sc     zoo.Scenario
	params zoo.ParamMap
	tokens int // tokens or symbols: the evolution iterations a run computes
}

func (in mixInput) String() string { return fmt.Sprintf("%s%v", in.sc.Name, in.params) }

// mixInputs derives the engine-mix inputs from the workload seed: the
// Table I chains (stages 1-4), the Section V LTE receiver, the phased
// workload and the fork-join, each at a fixed size so that the amount of
// work does not depend on the seed; the seed picks the token streams.
func mixInputs(cfg config) []mixInput {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x6d6978))
	n := int64(2000)
	if cfg.tiny {
		n = 60
	}
	input := func(name string, p zoo.ParamMap) mixInput {
		sc, err := zoo.LookupScenario(name)
		if err != nil {
			panic(err) // the names below are registered by imported packages
		}
		p["seed"] = 1 + rng.Int64N(1<<20)
		return mixInput{sc, p, int(n)}
	}
	var ins []mixInput
	for stages := int64(1); stages <= 4; stages++ {
		ins = append(ins, input("chain", zoo.ParamMap{"stages": stages, "tokens": n}))
	}
	return append(ins,
		input("lte", zoo.ParamMap{"symbols": n}),
		input("phased", zoo.ParamMap{"tokens": n}),
		input("forkjoin", zoo.ParamMap{"tokens": n}),
	)
}

// runCounts are the deterministic outputs of one run: they must repeat
// exactly whenever the same engine runs the same input.
type runCounts struct {
	finalNs     int64
	iterations  int
	activations int64
	events      int64
	switches    int
	fallbacks   int
}

func countsOf(r *dyncomp.EngineResult) runCounts {
	return runCounts{r.FinalTimeNs, r.Iterations, r.Activations, r.Events, r.Switches, r.Fallbacks}
}

// checkRun compares one engine's run against the reference engine's on
// the same input: the same final time, and every iteration of the input
// computed (the reference executor does not count iterations).
func checkRun(in mixInput, engineName string, got runCounts, ref runCounts) error {
	if err := same(fmt.Sprintf("%s on %s: final_time_ns", engineName, in), got.finalNs, ref.finalNs); err != nil {
		return err
	}
	if engineName == "reference" {
		return nil
	}
	return same(fmt.Sprintf("%s on %s: iterations", engineName, in), got.iterations, in.tokens)
}

// engineMix is the engine-mix workload: one caller running single
// simulations one after another through dyncomp.Run, every engine on
// every input, round robin.
type engineMix struct {
	inputs  []mixInput
	engines []string
	ref     []runCounts          // reference engine's outputs per input
	seen    map[[2]int]runCounts // first outputs per (input, engine)
}

func setupEngineMix(ctx context.Context, cfg config, t *tally) (instance, error) {
	w := &engineMix{inputs: mixInputs(cfg), engines: dyncomp.Engines(), seen: map[[2]int]runCounts{}}
	for _, in := range w.inputs {
		r, err := dyncomp.Run(ctx, "reference", in.sc.Build(in.params), dyncomp.EngineOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference run on %s: %w", in, err)
		}
		w.ref = append(w.ref, countsOf(r))
	}
	return w, nil
}

func (w *engineMix) run(ctx context.Context, d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		t0, c0, it0 := time.Now(), len(s.calls), s.iters
		for i, in := range w.inputs {
			for j, e := range w.engines {
				root := tr.begin(ref{}, "check", "engine-mix.op")
				sp := tr.begin(root, "zoo", "zoo.Build")
				a := in.sc.Build(in.params)
				opts := dyncomp.EngineOptions{AbstractGroup: in.sc.GroupFor(e, in.params)}
				tr.end(sp)
				sp = tr.begin(root, "dyncomp", "dyncomp.Run/"+e)
				t0 := time.Now()
				r, err := dyncomp.Run(ctx, e, a, opts)
				lat := time.Since(t0)
				tr.end(sp)
				if err != nil {
					s.op(fmt.Errorf("%s on %s: %w", e, in, err))
					tr.end(root)
					continue
				}
				s.calls = append(s.calls, lat)
				s.points++
				s.configs++
				s.iters += int64(in.tokens)
				got := countsOf(r)
				err = checkRun(in, e, got, w.ref[i])
				if first, ok := w.seen[[2]int{i, j}]; !ok {
					w.seen[[2]int{i, j}] = got
				} else if err == nil && got != first {
					err = fmt.Errorf("%s on %s: counts drifted: %+v, first run %+v", e, in, got, first)
				}
				s.op(err)
				tr.end(root)
			}
		}
		n := int64(len(s.calls) - c0)
		s.addRound(0, round{dur: time.Since(t0), calls: n, points: n, iters: s.iters - it0})
	}
	s.wall = time.Since(start)
	return s, nil
}

func (w *engineMix) close() {}
