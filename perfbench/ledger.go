package main

import (
	"context"
	"fmt"
	"time"

	"dyncomp"
	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/sweep"
	"dyncomp/internal/tdg"
)

// The ledger is the traced run's per-component cost account: a fixed
// suite of probes, each a call into one layer's public functions on
// inputs generated from the workload seed — the engine-mix inputs, the
// dse-sweep grid and the fleet-http request pools. It is the same suite
// on every workload, so every per-layer metric exists on every workload.

// ledgerReps is how often each timed probe repeats; timings report the
// median, counts must repeat exactly across the repetitions.
const ledgerReps = 3

type ledger struct {
	ctx context.Context
	cfg config
	tr  *tracer
	t   tally
	out map[string]float64
}

func runLedger(ctx context.Context, cfg config, tr *tracer) (map[string]float64, tally, error) {
	l := &ledger{ctx: ctx, cfg: cfg, tr: tr, out: map[string]float64{}}
	for _, probe := range []func() error{l.engines, l.derive, l.tdg, l.core, l.sweep, l.fleet} {
		if err := probe(); err != nil {
			return nil, l.t, err
		}
	}
	return l.out, l.t, nil
}

// exact records a count metric and checks that every repetition
// produced the same value.
func (l *ledger) exact(name string, reps []float64) {
	for _, v := range reps[1:] {
		if v != reps[0] {
			l.t.fail(fmt.Errorf("count %s drifted across repetitions: %v", name, reps))
			break
		}
	}
	l.t.attempted++
	l.out[name] = reps[0]
}

// timed runs fn under a span and returns its wall time.
func (l *ledger) timed(layer, name string, fn func() error) (time.Duration, error) {
	sp := l.tr.begin(ref{}, layer, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.tr.end(sp)
	return d, err
}

// engines runs every engine on every engine-mix input through
// dyncomp.Run, without a shared cache (each run derives privately, as a
// plain caller's would), and splits each engine's time into kernel
// activations, derivations and the remainder.
func (l *ledger) engines() error {
	inputs := mixInputs(l.cfg)
	engines := dyncomp.Engines()
	deriveMs := make([]float64, len(inputs)) // uncached Derive per input
	for i, in := range inputs {
		var ds []float64
		for r := 0; r < ledgerReps; r++ {
			a := in.sc.Build(in.params)
			d, err := l.timed("derive", "derive.Derive", func() error {
				_, err := derive.Derive(a, derive.Options{})
				return err
			})
			if err != nil {
				return fmt.Errorf("derive %s: %w", in, err)
			}
			ds = append(ds, ms(d))
		}
		deriveMs[i] = median(ds)
	}
	type perEngine struct {
		walls                  []float64 // every run, ms
		medSum                 float64   // Σ over inputs of the median run, ms
		act, ev, sw, fb, calls []float64 // per repetition, summed over inputs
		deriveSum              float64   // Σ derive calls × derive cost, ms
	}
	stats := map[string]*perEngine{}
	for _, e := range engines {
		pe := &perEngine{}
		pe.act = make([]float64, ledgerReps)
		pe.ev = make([]float64, ledgerReps)
		pe.sw = make([]float64, ledgerReps)
		pe.fb = make([]float64, ledgerReps)
		pe.calls = make([]float64, ledgerReps)
		for i, in := range inputs {
			var walls []float64
			for r := 0; r < ledgerReps; r++ {
				a := in.sc.Build(in.params)
				opts := dyncomp.EngineOptions{AbstractGroup: in.sc.GroupFor(e, in.params)}
				var res *dyncomp.EngineResult
				c0 := derive.Calls()
				d, err := l.timed("dyncomp", "dyncomp.Run/"+e, func() (err error) {
					res, err = dyncomp.Run(l.ctx, e, a, opts)
					return err
				})
				calls := derive.Calls() - c0
				if err != nil {
					return fmt.Errorf("%s on %s: %w", e, in, err)
				}
				walls = append(walls, ms(d))
				pe.act[r] += float64(res.Activations)
				pe.ev[r] += float64(res.Events)
				pe.sw[r] += float64(res.Switches)
				pe.fb[r] += float64(res.Fallbacks)
				pe.calls[r] += float64(calls)
				if r == 0 {
					pe.deriveSum += float64(calls) * deriveMs[i]
				}
			}
			pe.walls = append(pe.walls, walls...)
			pe.medSum += median(walls)
		}
		stats[e] = pe
		l.exact("sim.activations."+e, pe.act)
		l.exact("sim.events."+e, pe.ev)
		l.out["engine."+e+".run_ms_p50"] = median(pe.walls)
	}
	ref := stats["reference"]
	nsPerAct := ref.medSum * 1e6 / ref.act[0]
	l.out["sim.ns_per_activation"] = nsPerAct
	for _, e := range engines {
		pe := stats[e]
		if e == "reference" {
			continue
		}
		l.out["engine."+e+".vs_reference"] = ref.medSum / pe.medSum
		// The anomaly split of one pass over the inputs (one run each).
		actMs := pe.act[0] * nsPerAct / 1e6
		l.out["anomaly."+e+".run_ms"] = pe.medSum
		l.out["anomaly."+e+".activation_ms"] = actMs
		l.out["anomaly."+e+".derive_ms"] = pe.deriveSum
		l.out["anomaly."+e+".other_ms"] = pe.medSum - actMs - pe.deriveSum
	}
	l.exact("adaptive.switches", stats["adaptive"].sw)
	l.exact("adaptive.fallbacks", stats["adaptive"].fb)
	for _, e := range []string{"adaptive", "hybrid"} {
		per := make([]float64, ledgerReps)
		for r, c := range stats[e].calls {
			per[r] = c / float64(len(inputs))
		}
		l.exact("derive.calls."+e, per)
	}
	return nil
}

// derive measures a cold Cache.Derive (derivation and compilation) on
// the engine-mix inputs and a warm one (a rebind) on the dse-sweep
// graph.
func (l *ledger) derive() error {
	inputs := mixInputs(l.cfg)
	var miss, compiles []float64
	for r := 0; r < ledgerReps; r++ {
		c0 := tdg.Compiles()
		for _, in := range inputs {
			a := in.sc.Build(in.params)
			cache := derive.NewCache()
			d, err := l.timed("derive", "derive.Cache.Derive/miss", func() error {
				_, err := cache.Derive(a, derive.Options{})
				return err
			})
			if err != nil {
				return fmt.Errorf("cold derive %s: %w", in, err)
			}
			miss = append(miss, ms(d))
		}
		compiles = append(compiles, float64(tdg.Compiles()-c0))
	}
	l.out["derive.miss_ms"] = median(miss)
	l.exact("tdg.compiles", compiles)

	g := newDSEGrid(l.cfg)
	archs, err := g.cohort()
	if err != nil {
		return err
	}
	cache := derive.NewCache()
	opts := derive.Options{PadNodes: g.pad}
	if _, err := cache.Derive(archs[0], opts); err != nil {
		return err
	}
	var hit []float64
	for r := 0; r < ledgerReps; r++ {
		for _, a := range archs {
			d, err := l.timed("derive", "derive.Cache.Derive/hit", func() error {
				_, err := cache.Derive(a, opts)
				return err
			})
			if err != nil {
				return err
			}
			hit = append(hit, us(d))
		}
	}
	l.out["derive.hit_us"] = median(hit)
	return nil
}

// dseLanes derives the dse-sweep cohort as 16 weight lanes of one
// compiled structure.
func dseLanes(cfg config) ([]*derive.Result, dseGrid, error) {
	g := newDSEGrid(cfg)
	archs, err := g.cohort()
	if err != nil {
		return nil, g, err
	}
	lanes, err := derive.DeriveBatch(archs, derive.Options{PadNodes: g.pad})
	return lanes, g, err
}

// tdg times the compiled scalar step and the 16-wide batched step on the
// dse-sweep graph, over as many iterations as the grid's points run.
func (l *ledger) tdg() error {
	lanes, g, err := dseLanes(l.cfg)
	if err != nil {
		return err
	}
	prog := lanes[0].Program()
	nIn := len(prog.Graph().Inputs())
	u := make([]maxplus.T, nIn)
	var step []float64
	for r := 0; r < ledgerReps; r++ {
		ev := prog.NewEvaluator()
		d, err := l.timed("tdg", "tdg.Evaluator.Step", func() error {
			for k := 0; k < g.tokens; k++ {
				for i := range u {
					u[i] = maxplus.T(600 * k)
				}
				if _, err := ev.Step(u); err != nil {
					return err
				}
			}
			return nil
		})
		ev.Release()
		if err != nil {
			return err
		}
		step = append(step, float64(d.Nanoseconds())/float64(g.tokens))
	}
	l.out["tdg.step_ns"] = median(step)

	progs := make([]*tdg.Program, len(lanes))
	for i, ln := range lanes {
		progs[i] = ln.Program()
	}
	ub := make([]maxplus.T, nIn*len(progs))
	var batch []float64
	for r := 0; r < ledgerReps; r++ {
		be, err := tdg.NewBatchEvaluator(progs)
		if err != nil {
			return err
		}
		d, err := l.timed("tdg", "tdg.BatchEvaluator.Step", func() error {
			for k := 0; k < g.tokens; k++ {
				for i := range ub {
					ub[i] = maxplus.T(600 * k)
				}
				if _, err := be.Step(ub); err != nil {
					return err
				}
			}
			return nil
		})
		be.Release()
		if err != nil {
			return err
		}
		batch = append(batch, float64(d.Nanoseconds())/float64(g.tokens*len(progs)))
	}
	l.out["tdg.batch_step_ns_per_lane"] = median(batch)
	return nil
}

// core times Model.Run on the engine-mix inputs (mean per input) and
// RunBatch on the dse-sweep cohort (per lane).
func (l *ledger) core() error {
	inputs := mixInputs(l.cfg)
	models := make([]*core.Model, len(inputs))
	for i, in := range inputs {
		res, err := derive.Derive(in.sc.Build(in.params), derive.Options{})
		if err != nil {
			return err
		}
		if models[i], err = core.New(res); err != nil {
			return err
		}
	}
	var runMs []float64
	for r := 0; r < ledgerReps; r++ {
		d, err := l.timed("core", "core.Model.Run", func() error {
			for _, m := range models {
				if _, err := m.Run(core.Options{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		runMs = append(runMs, ms(d)/float64(len(models)))
	}
	l.out["core.run_ms"] = median(runMs)

	var laneMs []float64
	for r := 0; r < ledgerReps; r++ {
		lanes, _, err := dseLanes(l.cfg)
		if err != nil {
			return err
		}
		d, err := l.timed("core", "core.RunBatch", func() error {
			_, errs, err := core.RunBatch(lanes, core.BatchOptions{})
			if err != nil {
				return err
			}
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		laneMs = append(laneMs, ms(d)/float64(len(lanes)))
	}
	l.out["core.batch_ms_per_lane"] = median(laneMs)
	return nil
}

// sweep runs the dse-sweep grid on a warm cache and reports the time the
// worker pool spends outside point evaluations, per point, and the
// batch lane occupancy.
func (l *ledger) sweep() error {
	g := newDSEGrid(l.cfg)
	opts := g.options(derive.NewCache(), dseBatch)
	if _, err := sweep.RunContext(l.ctx, g.axes, g.gen, opts); err != nil {
		return err
	}
	var dispatch, occ []float64
	for r := 0; r < ledgerReps; r++ {
		var res *sweep.Result
		d, err := l.timed("sweep", "sweep.RunContext", func() (err error) {
			res, err = sweep.RunContext(l.ctx, g.axes, g.gen, opts)
			return err
		})
		if err != nil {
			return err
		}
		var pointWall time.Duration
		for _, pr := range res.Points {
			pointWall += pr.Run.Wall
		}
		n := float64(len(res.Points))
		dispatch = append(dispatch, us(d*dseWorkers-pointWall)/n)
		occ = append(occ, res.Stats.BatchOccupancy)
	}
	l.out["sweep.dispatch_us_per_point"] = median(dispatch)
	l.exact("sweep.batch_occupancy", occ)
	return nil
}

// fleet drives a fresh fleet: the inline bodies through archjson, the
// run pool through /v1/run and in process, and the job pool through the
// coordinator and a single-process sweep.
func (l *ledger) fleet() error {
	runs, jobs, err := fleetPool(l.ctx, l.cfg)
	if err != nil {
		return err
	}
	var decode []float64
	for r := 0; r < ledgerReps; r++ {
		for _, rr := range runs {
			if rr.inline == nil {
				continue
			}
			d, err := l.timed("archjson", "archjson.Decode+Build", func() error {
				_, err := inlineArch(rr.inline)
				return err
			})
			if err != nil {
				return err
			}
			decode = append(decode, us(d))
		}
	}
	l.out["archjson.decode_us"] = median(decode)

	f, err := startFleet()
	if err != nil {
		return err
	}
	defer f.close()
	c := newClient()
	defer c.CloseIdleConnections()
	// In-process runs share one warm cache, as the workers do.
	cache := dyncomp.NewCache()
	var httpUs, localUs []float64
	for r := 0; r < ledgerReps; r++ {
		for i, rr := range runs {
			d, err := l.timed("serve", "POST /v1/run", func() error {
				_, err := doRun(l.ctx, nil, ref{}, c, f.urls[i%2], rr)
				return err
			})
			l.t.op(err)
			httpUs = append(httpUs, us(d))
			a, err := rr.arch()
			if err != nil {
				return err
			}
			d, err = l.timed("dyncomp", "dyncomp.Run/equivalent", func() error {
				_, err := dyncomp.Run(l.ctx, "equivalent", a, dyncomp.EngineOptions{Cache: cache})
				return err
			})
			if err != nil {
				return err
			}
			localUs = append(localUs, us(d))
		}
	}
	l.out["serve.http_overhead_us"] = median(httpUs) - median(localUs)
	m, err := scrape(l.ctx, c, f.urls, cacheHits, cacheMisses, rejections)
	if err != nil {
		return err
	}
	l.out["serve.cache_hit_ratio"] = ratio(m[cacheHits], m[cacheHits]+m[cacheMisses])
	l.out["serve.rejections"] = m[rejections]

	var jobMs, localMs, perJob, retries []float64
	for r := 0; r < ledgerReps; r++ {
		jr := jobs[0]
		before, err := scrape(l.ctx, c, append([]string{f.coordURL}, f.urls...), chunks, chunkRetries)
		if err != nil {
			return err
		}
		d, err := l.timed("shard", "POST /v1/sweeps + results", func() error {
			_, err := doJob(l.ctx, nil, ref{}, c, f.coordURL, jr)
			return err
		})
		l.t.op(err)
		jobMs = append(jobMs, ms(d))
		after, err := scrape(l.ctx, c, append([]string{f.coordURL}, f.urls...), chunks, chunkRetries)
		if err != nil {
			return err
		}
		perJob = append(perJob, after[chunks]-before[chunks])
		retries = append(retries, after[chunkRetries]-before[chunkRetries])
		plan, err := jobPlan(jr.req)
		if err != nil {
			return err
		}
		d, err = l.timed("sweep", "sweep.RunContext", func() error {
			_, err := sweep.RunContext(l.ctx, plan.Axes, plan.Gen, plan.Opts)
			return err
		})
		if err != nil {
			return err
		}
		localMs = append(localMs, ms(d))
	}
	l.out["shard.job_overhead_ms"] = median(jobMs) - median(localMs)
	l.exact("shard.chunks_per_job", perJob)
	l.exact("shard.chunk_retries", retries)
	return nil
}
