// Package adaptive is the temporal-abstraction engine: it decides
// *online*, while a model runs, which execution engine simulates each
// span of iterations.
//
// A run starts event-by-event on the discrete-event kernel (the detailed
// mode) and watches the evolution for a confirmed steady state: an
// unchanged parameter signature — every data-dependent execution duration
// and every source-schedule increment — confirmed by an online detector,
// either a fixed window of iterations (Options.WindowK) or, by default,
// a confidence-driven estimator that fires as early as the evidence
// allows (see detector.go). Once confirmed, the steady region is
// hot-switched to the
// equivalent (max,+) model: a temporal-dependency-graph evaluator is
// seeded with the live simulation state (the recorded instant history
// supplies the graph's initial conditions) and computes all further
// instants with zero kernel events. Whenever the parameter signature
// changes — a reconfiguration of the modelled workload that invalidates
// the steady assumption — the engine falls back to event-driven
// execution, seeding the resumed kernel from the computed history, and
// re-binds the graph through the structure-keyed derive cache on the next
// steady window.
//
// Both directions of the switch are exact, not approximate. The detailed
// engine resumes at an arbitrary iteration boundary because every
// dependency that crosses the boundary is a delayed arc of the derived
// temporal dependency graph (rotation gates and FIFO backpressure; all
// zero-delay arcs stay within one iteration), and each such arc is
// realized in the resumed kernel as an absolute time floor on the process
// statement owning the target instant — by (max,+) semantics, waiting
// until the historical term before engaging a transfer adds exactly that
// term to the transfer's readiness expression. The abstract engine
// resumes because the evaluator's bounded history ring is seeded from the
// same recorded instants. Integration tests therefore require the
// adaptive trace to be bit-exact against the pure reference executor on
// every scenario, steady or not; the steady-state detector is a policy
// that decides how many kernel events are saved, never what the instants
// are.
package adaptive

import (
	"context"
	"time"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// DefaultWindow is the historical fixed-window width: the confirmation
// window (and detailed chunk length) of the original detector. Pass it
// as Options.WindowK to reproduce the pre-confidence behavior exactly;
// a zero WindowK selects the confidence-driven detector.
const DefaultWindow = 8

// adEngine registers temporal abstraction under the uniform engine
// contract.
type adEngine struct{}

func (adEngine) Name() string { return "adaptive" }

func (adEngine) Run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, error) {
	return Run(ctx, a, opts)
}

func init() { engine.Register(adEngine{}) }

// Run simulates the architecture with the adaptive engine. The recorded
// evolution is bit-exact against the reference executor regardless of how
// the run is partitioned into detailed and abstract phases.
//
// The adaptive-specific options: opts.WindowK, when positive, selects the
// fixed-window detector — the number of consecutive iterations with an
// identical parameter signature required before switching to the
// abstract engine, which is also the detailed chunk length between
// steady-state checks; zero selects the confidence-driven detector with
// threshold opts.Confidence (zero: DefaultConfidence). The detector is a
// policy either way — the recorded evolution is bit-exact at any
// setting. opts.LimitNs truncates at iteration granularity: the run
// stops after the first iteration whose instants exceed the limit.
// Every switch to the abstract engine obtains its graph through
// opts.Cache (nil: a private cache), so repeated steady windows re-bind
// one template instead of re-deriving. The context is checked and
// opts.Progress invoked at every phase boundary; the kernel itself is
// uninterruptible, so a cancelled context aborts between phases, never
// inside one.
//
// Result.WallNs covers the whole run: graph (re-)derivation through the
// cache is part of how this engine executes, not a separate
// model-generation step. Result.Phases lists the mode spans in
// execution order; abstract phases pay no kernel work.
func Run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, error) {
	res, _, err := run(ctx, a, opts)
	return res, err
}

// run is Run, also returning the kernel work summed over the detailed
// phases, with FinalTime covering the whole evolution.
func run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, sim.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, sim.Stats{}, err
	}
	begin := time.Now()
	if err := a.Validate(); err != nil {
		return nil, sim.Stats{}, err
	}
	det := newDetector(opts.WindowK, opts.Confidence)
	cache := opts.Cache
	if cache == nil {
		cache = derive.NewCache()
	}
	dopts := opts.Derive
	dres, err := cache.Derive(a, dopts)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	n, err := a.Iterations()
	if err != nil {
		return nil, sim.Stats{}, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < n {
		n = opts.IterLimit
	}
	// The engine records internally even without a requested trace (the
	// history seeds every switch), so recording costs nothing extra.
	rec := observe.NewTrace(a.Name + "/adaptive")
	execs, err := a.Execs()
	if err != nil {
		return nil, sim.Stats{}, err
	}

	r := &runner{
		arch:  a,
		limit: sim.Time(opts.LimitNs),
		det:   det,
		cache: cache,
		dopts: dopts,
		dres:  dres,
		rec:   rec,
		n:     n,
		execs: execs,
	}
	if err := r.buildFloorPoints(); err != nil {
		return nil, sim.Stats{}, err
	}

	res := &engine.Result{GraphNodes: dres.Graph.NodeCountWithDelays()}
	if opts.Record {
		res.Trace = rec
	}
	// phase closes a span at every phase boundary: record it, report
	// progress, honor cancellation.
	phase := func(ph engine.Phase, start time.Time, before sim.Stats) error {
		ph.WallNs = time.Since(start).Nanoseconds()
		ph.Events = r.total.Events() - before.Events()
		ph.Activations = r.total.Activations - before.Activations
		res.Phases = append(res.Phases, ph)
		if opts.Progress != nil {
			opts.Progress(ph.EndK, n)
		}
		return ctx.Err()
	}
	k := 0
	for k < n && !r.truncated {
		// Detailed: event-by-event chunks until the detector confirms a
		// steady state that still holds for the next iteration (the same
		// signature check the abstract engine performs before every
		// computed iteration). The chunk length between checks is the
		// detector's own estimate of the earliest possible confirmation.
		k0, start, before := k, time.Now(), r.total
		for k < n && !r.truncated {
			r.advanceDetector(k)
			k1 := k + r.det.nextCheck()
			if k1 > n {
				k1 = n
			}
			k, err = r.runChunk(k, k1)
			if err != nil {
				return nil, sim.Stats{}, err
			}
			if r.switchable(k) {
				break
			}
		}
		if err := phase(engine.Phase{Mode: engine.ModeDetailed, StartK: k0, EndK: k}, start, before); err != nil {
			return nil, sim.Stats{}, err
		}
		if k >= n || r.truncated {
			break
		}

		// Abstract: compute instants over the (re-bound) graph until the
		// parameter signature deviates from the confirmed steady one.
		res.Switches++
		k0, start, before = k, time.Now(), r.total
		k, err = r.runAbstract(k)
		if err != nil {
			return nil, sim.Stats{}, err
		}
		if err := phase(engine.Phase{Mode: engine.ModeAbstract, StartK: k0, EndK: k}, start, before); err != nil {
			return nil, sim.Stats{}, err
		}
		if k < n && !r.truncated {
			res.Fallbacks++
		}
	}

	// FinalTime covers the whole evolution, including instants computed
	// abstractly; the kernel counters sum the detailed phases.
	st := r.total
	if r.endTime > st.FinalTime {
		st.FinalTime = r.endTime
	}
	res.Activations = st.Activations
	res.Events = st.Events()
	res.FinalTimeNs = int64(st.FinalTime)
	res.Iterations = k
	res.WallNs = time.Since(begin).Nanoseconds()
	return res, st, nil
}

// runner is the state of one adaptive run.
type runner struct {
	arch  *model.Architecture
	limit sim.Time // simulated-time bound (0: none)
	det   detector
	cache *derive.Cache
	dopts derive.Options
	dres  *derive.Result
	rec   *observe.Trace
	n     int

	execs    []*model.ExecInfo // controller-owned, for parameter signatures
	sigs     [][]maxplus.T     // memoized signatures by iteration
	sigIdx   int               // last signature index fed to the detector
	floorPts []floorPoint

	total     sim.Stats
	endTime   sim.Time // latest instant over all phases
	truncated bool
}

// sigAt returns the parameter signature of iteration k: every execution
// duration plus every source-schedule increment. Two iterations with
// equal signatures evolve under identical graph weights and input
// spacing — the paper's notion of unchanged model parameters.
func (r *runner) sigAt(k int) []maxplus.T {
	for len(r.sigs) <= k {
		r.sigs = append(r.sigs, nil)
	}
	if r.sigs[k] != nil {
		return r.sigs[k]
	}
	sig := make([]maxplus.T, 0, len(r.execs)+len(r.arch.Sources))
	for _, e := range r.execs {
		sig = append(sig, e.Duration(k))
	}
	for _, s := range r.arch.Sources {
		u := s.Schedule(k)
		if k > 0 {
			u -= s.Schedule(k - 1)
		}
		sig = append(sig, u)
	}
	r.sigs[k] = sig
	return sig
}

func sigsEqual(a, b []maxplus.T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// advanceDetector feeds the detector every signature transition up to
// and including (k-1, k), exactly once each: sigIdx tracks the last
// signature incorporated, so interleaved detailed chunks, steady-state
// checks and abstract fallbacks all observe one contiguous stream.
// Signatures are analytic (pure functions of the model), so the stream
// can run ahead of the simulated iterations — that final transition is
// the one-step lookahead keeping a switch from falling straight back.
func (r *runner) advanceDetector(k int) {
	for r.sigIdx < k {
		r.sigIdx++
		r.det.observe(sigsEqual(r.sigAt(r.sigIdx-1), r.sigAt(r.sigIdx)))
	}
}

// switchable reports whether the run may switch to the abstract engine
// at iteration k: the detector confirms steadiness over the transition
// stream ending at sig(k) — which includes the lookahead match of
// iteration k itself (otherwise the switch would fall straight back).
// With the fixed-window detector this is bit-identical to the original
// trailing-window check.
func (r *runner) switchable(k int) bool {
	if k < 1 || k >= r.n {
		return false
	}
	r.advanceDetector(k)
	return r.det.confirmed()
}

// hist returns the recorded instant of a graph node at iteration k, or ε
// when the node is unlabelled or the iteration not yet evolved.
func (r *runner) hist(id tdg.NodeID, k int) maxplus.T {
	label, ok := r.dres.Labels[id]
	if !ok {
		return maxplus.Epsilon
	}
	xs := r.rec.Instants(label)
	if k < 0 || k >= len(xs) {
		return maxplus.Epsilon
	}
	return xs[k]
}

// runChunk simulates iterations [k0, k1) event-by-event on a fresh
// kernel, seeded from the recorded history through statement floors, and
// returns the next iteration index: k1 normally, or — when the time
// limit cut the chunk short — the number of iterations the kernel
// actually completed for every instant label.
func (r *runner) runChunk(k0, k1 int) (int, error) {
	kern := sim.New()
	aopts := baseline.AttachOptions{
		Trace:      r.rec,
		IterOffset: k0,
		IterLimit:  k1,
	}
	if k0 > 0 {
		floors, srcFloors := r.floorsFor(k0)
		if len(floors) > 0 {
			aopts.Floor = func(f *model.Function, stmt, k int) sim.Time {
				return floors[floorKey{f: f, stmt: stmt, k: k}]
			}
		}
		if len(srcFloors) > 0 {
			aopts.SourceFloor = func(s *model.Source, k int) sim.Time {
				return srcFloors[srcFloorKey{s: s, k: k}]
			}
		}
	}
	if _, err := baseline.Attach(kern, r.arch, aopts); err != nil {
		return k0, err
	}
	limit := r.limit
	if limit <= 0 {
		limit = sim.Forever
	}
	if err := kern.Run(limit); err != nil {
		return k0, err
	}
	st := kern.Stats()
	if r.limit > 0 && st.FinalTime >= r.limit {
		r.truncated = true
	}
	if st.FinalTime > r.endTime {
		r.endTime = st.FinalTime
	}
	r.total = r.total.Add(st)
	if !r.truncated {
		return k1, nil
	}
	return r.completedIterations(k0, k1), nil
}

// completedIterations counts how many iterations the trace holds for
// every instant label — the evolution actually finished when a time
// limit stopped a chunk before its last iteration.
func (r *runner) completedIterations(k0, k1 int) int {
	done := k1
	for _, label := range r.dres.Labels {
		if n := len(r.rec.Instants(label)); n < done {
			done = n
		}
	}
	if done < k0 {
		done = k0
	}
	return done
}

// runAbstract computes iterations from k0 onward over the temporal
// dependency graph (obtained through the structure-keyed cache, so
// repeated steady windows re-bind one derivation) until the parameter
// signature deviates from the steady signature confirmed at the switch.
// It returns the first iteration not computed.
func (r *runner) runAbstract(k0 int) (int, error) {
	dres, err := r.cache.Derive(r.arch, r.dopts)
	if err != nil {
		return k0, err
	}
	// The hot switch seeds the compiled evaluator's ring directly from
	// the recorded live trace.
	ev := dres.Program().NewEvaluator()
	defer ev.Release()
	if err := ev.SeedHistory(k0, r.hist); err != nil {
		return k0, err
	}
	steady := r.sigAt(k0 - 1)
	us := make([]maxplus.T, len(r.arch.Sources))
	vals := make([]maxplus.T, dres.Graph.NodeCount())
	k := k0
	for k < r.n {
		if !sigsEqual(r.sigAt(k), steady) {
			break // reconfiguration: fall back to the detailed engine
		}
		for i, s := range r.arch.Sources {
			us[i] = s.Schedule(k)
		}
		if _, err := ev.Step(us); err != nil {
			return k, err
		}
		ev.ValuesInto(vals)
		iterEnd := sim.Time(0)
		if end := dres.Record(r.rec, vals, k); end != maxplus.Epsilon {
			iterEnd = sim.Time(end)
		}
		if iterEnd > r.endTime {
			r.endTime = iterEnd
		}
		k++
		if r.limit > 0 && iterEnd >= r.limit {
			r.truncated = true
			break
		}
	}
	return k, nil
}
