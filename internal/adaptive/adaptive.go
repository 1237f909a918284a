// Package adaptive is the temporal-abstraction engine: it decides which
// execution engine simulates each span of iterations of a run.
//
// A run starts event-by-event on the discrete-event kernel (the detailed
// mode) until an online detector confirms a steady state: an unchanged
// parameter signature — every data-dependent execution duration and
// every source-schedule increment — over either a fixed window of
// iterations (Options.WindowK) or, by default, as early as a
// confidence-driven estimator allows (see detector.go). The steady
// region is then hot-switched to the equivalent (max,+) model: a
// temporal-dependency-graph evaluator is seeded with the live
// simulation state (the recorded instant history supplies the graph's
// initial conditions) and computes all further instants with zero
// kernel events. Whenever the parameter signature changes — a
// reconfiguration of the modelled workload that invalidates the steady
// assumption — the engine falls back to event-driven execution, seeding
// the resumed kernel from the computed history, and re-binds the graph
// through the structure-keyed derive cache on the next steady phase.
//
// Signatures are pure functions of the model, so the detector never
// needs the kernel: the run is planned first — every phase boundary
// worked out from the signature stream — and then executed, one kernel
// per detailed phase. Detailed work on a run that never switches is
// therefore exactly the reference executor's.
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
	"slices"
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
// window of the original detector, which is also the spacing of its
// steady-state checks. Pass it as Options.WindowK to reproduce the
// pre-confidence switch points exactly; a zero WindowK selects the
// confidence-driven detector.
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
// The phases are planned before any simulation starts, from the
// parameter-signature stream alone (see plan), and each detailed phase
// then runs on one kernel. The adaptive-specific options:
// opts.WindowK, when positive, selects the fixed-window detector — the
// number of consecutive iterations with an identical parameter
// signature required before switching to the abstract engine, checked
// every WindowK iterations of a detailed phase; zero selects the
// confidence-driven detector with threshold opts.Confidence (zero:
// DefaultConfidence), checked every iteration. The detector is a policy
// either way — the recorded evolution is bit-exact at any setting.
// opts.LimitNs truncates at iteration granularity: the run stops after
// the first iteration whose instants exceed the limit. Every switch to
// the abstract engine obtains its graph through opts.Cache (nil: a
// private cache), so repeated steady phases re-bind one template
// instead of re-deriving. The context is checked and opts.Progress
// invoked at every phase boundary; the kernel itself is uninterruptible,
// so a cancelled context aborts between phases, never inside one.
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
	r, err := newRunner(a, opts)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	execs, err := a.Execs()
	if err != nil {
		return nil, sim.Stats{}, err
	}
	n := r.n
	spans := plan(n, newDetector(opts.WindowK, opts.Confidence), sameSignature(a, execs, n))

	res := &engine.Result{GraphNodes: r.dres.Graph.NodeCountWithDelays()}
	if opts.Record {
		res.Trace = r.rec
	}
	k := 0
	for _, sp := range spans {
		start, before := time.Now(), r.total
		mode, exec := engine.ModeDetailed, r.runChunk
		if sp.abstract {
			res.Switches++
			mode, exec = engine.ModeAbstract, r.runAbstract
		}
		if k, err = exec(sp.k0, sp.k1); err != nil {
			return nil, sim.Stats{}, err
		}
		// Close the phase: record it, report progress, honor
		// cancellation.
		res.Phases = append(res.Phases, engine.Phase{
			Mode:        mode,
			StartK:      sp.k0,
			EndK:        k,
			WallNs:      time.Since(start).Nanoseconds(),
			Events:      r.total.Events() - before.Events(),
			Activations: r.total.Activations - before.Activations,
		})
		if opts.Progress != nil {
			opts.Progress(k, n)
		}
		if err := ctx.Err(); err != nil {
			return nil, sim.Stats{}, err
		}
		if r.truncated {
			break
		}
		if sp.abstract && k < n {
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
	cache *derive.Cache
	dopts derive.Options
	dres  *derive.Result
	rec   *observe.Trace
	n     int

	floorPts []floorPoint

	total     sim.Stats
	endTime   sim.Time // latest instant over all phases
	truncated bool
}

// newRunner validates the architecture, derives its graph through the
// cache and resolves the resume floor sites, ready for any sequence of
// phases.
func newRunner(a *model.Architecture, opts engine.Options) (*runner, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = derive.NewCache()
	}
	dres, err := cache.Derive(a, opts.Derive)
	if err != nil {
		return nil, err
	}
	n, err := a.Iterations()
	if err != nil {
		return nil, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < n {
		n = opts.IterLimit
	}
	r := &runner{
		arch:  a,
		limit: sim.Time(opts.LimitNs),
		cache: cache,
		dopts: opts.Derive,
		dres:  dres,
		// The engine records internally even without a requested trace
		// (the history seeds every switch), so recording costs nothing
		// extra.
		rec: observe.NewTrace(a.Name + "/adaptive"),
		n:   n,
	}
	if err := r.buildFloorPoints(); err != nil {
		return nil, err
	}
	return r, nil
}

// sameSignature returns the signature-transition stream of the first n
// iterations: same[k] reports whether iteration k's parameter signature
// — every execution duration plus every source-schedule increment —
// equals iteration k-1's (same[0] is false). Two iterations with equal
// signatures evolve under identical graph weights and input spacing,
// the paper's notion of unchanged model parameters. Signatures are pure
// functions of the model, so the whole stream is known before the run.
func sameSignature(a *model.Architecture, execs []*model.ExecInfo, n int) []bool {
	same := make([]bool, n)
	prev := make([]maxplus.T, 0, len(execs)+len(a.Sources))
	cur := make([]maxplus.T, 0, cap(prev))
	for k := 0; k < n; k++ {
		cur = cur[:0]
		for _, e := range execs {
			cur = append(cur, e.Duration(k))
		}
		for _, s := range a.Sources {
			u := s.Schedule(k)
			if k > 0 {
				u -= s.Schedule(k - 1)
			}
			cur = append(cur, u)
		}
		same[k] = k > 0 && slices.Equal(prev, cur)
		prev, cur = cur, prev
	}
	return same
}

// span is one planned phase: iterations [k0, k1), computed over the
// graph when abstract and simulated on one kernel otherwise.
type span struct {
	abstract bool
	k0, k1   int
}

// plan works out every phase of an n-iteration run from the
// signature-transition stream before anything runs. The detector sees
// each transition exactly once and in order, and is asked for
// confirmation every nextCheck iterations of a detailed phase, as if it
// ran interleaved with the kernel. A detailed phase ends where the
// detector confirms a steady state over the stream up to and including
// the phase's last transition — the one-step lookahead keeping a switch
// from falling straight back; an abstract phase ends at the first
// changed signature. Equal consecutive signatures keep the whole
// abstract phase at the signature confirmed at the switch.
func plan(n int, det detector, same []bool) []span {
	var spans []span
	seen := 0 // transitions observed: same[1..seen]
	observe := func(k int) {
		for ; seen < k; seen++ {
			det.observe(same[seen+1])
		}
	}
	for k := 0; k < n; {
		k0 := k
		observe(k)
		for {
			k = min(k+det.nextCheck(), n)
			if k == n {
				break
			}
			observe(k)
			if det.confirmed() {
				break
			}
		}
		spans = append(spans, span{k0: k0, k1: k})
		if k == n {
			break
		}
		k0 = k
		for k < n && same[k] {
			k++
		}
		spans = append(spans, span{abstract: true, k0: k0, k1: k})
	}
	return spans
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

// runChunk simulates iterations [k0, k1) event-by-event on one fresh
// kernel, seeded from the recorded history through statement floors, and
// returns the next iteration index: k1 normally, or — when the time
// limit cut the phase short — the number of iterations the kernel
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
// limit stopped a kernel before its last iteration.
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

// runAbstract computes iterations [k0, k1) over the temporal dependency
// graph, obtained through the structure-keyed cache so repeated steady
// phases re-bind one derivation. It returns the first iteration not
// computed: k1, or earlier when the time limit cut the phase.
func (r *runner) runAbstract(k0, k1 int) (int, error) {
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
	us := make([]maxplus.T, len(r.arch.Sources))
	vals := make([]maxplus.T, dres.Graph.NodeCount())
	k := k0
	for k < k1 {
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
