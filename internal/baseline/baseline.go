// Package baseline is the event-driven reference executor: it compiles an
// architecture model onto the discrete-event kernel with one simulation
// process per application function, exhibiting every relation among
// functions as kernel events — the "first model" that Section V of the
// paper compares against.
//
// Its semantics are exactly those of the temporal-dependency-graph
// derivation (internal/derive): rendezvous/FIFO transfer instants, static
// rotation of mapped functions with windowed concurrency, data-dependent
// execution durations. The recorded evolution instants of the two engines
// must agree bit-exact; integration tests enforce this.
package baseline

import (
	"context"
	"fmt"
	"time"

	"dyncomp/internal/chanrt"
	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// refEngine registers the reference executor under the uniform engine
// contract.
type refEngine struct{}

func (refEngine) Name() string { return "reference" }

func (refEngine) Run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, error) {
	return Run(ctx, a, opts)
}

func init() { engine.Register(refEngine{}) }

// Run simulates the architecture event-by-event until every source is
// exhausted and the pipeline has drained (or opts.LimitNs is reached).
// The architecture must validate. The reference executor needs no
// derivation, so opts.Derive and opts.Cache are ignored.
func Run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/reference")
	}
	begin := time.Now()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	limit := sim.Time(opts.LimitNs)
	if limit <= 0 {
		limit = sim.Forever
	}

	k := sim.New()
	if _, err := Attach(k, a, AttachOptions{Trace: trace, IterLimit: opts.IterLimit}); err != nil {
		return nil, err
	}
	if err := k.Run(limit); err != nil {
		return nil, err
	}
	if opts.Progress != nil {
		opts.Progress(0, 0) // the kernel does not count iterations
	}
	st := k.Stats()
	return &engine.Result{
		Trace:       trace,
		Activations: st.Activations,
		Events:      st.Events(),
		FinalTimeNs: int64(st.FinalTime),
		WallNs:      time.Since(begin).Nanoseconds(),
	}, nil
}

// AttachOptions configures Attach.
type AttachOptions struct {
	// Trace records instants and activities of the attached processes.
	Trace *observe.Trace
	// Skip excludes functions from spawning (their channels still get
	// runtimes unless provided). Partial abstraction replaces the skipped
	// group with an equivalent model.
	Skip func(f *model.Function) bool
	// Chans supplies pre-created runtimes for specific channels (boundary
	// channels of a partial abstraction); missing channels get fresh
	// runtimes recording into Trace.
	Chans map[*model.Channel]chanrt.RT
	// SkipChannel excludes channels entirely (internal channels of an
	// abstracted group).
	SkipChannel func(ch *model.Channel) bool

	// IterOffset resumes the evolution at a later iteration: sources emit
	// tokens IterOffset, IterOffset+1, ... (with their absolute schedule
	// instants), and recorded activities carry the global iteration index.
	// Constraints reaching back across the resume point must be supplied
	// through Floor/SourceFloor; the adaptive engine computes them from
	// the temporal dependency graph and the recorded history.
	IterOffset int
	// IterLimit, when positive, stops every source after token IterLimit-1,
	// bounding the segment to iterations [IterOffset, IterLimit).
	IterLimit int
	// Floor, when non-nil, gives an absolute lower bound on the instant at
	// which function f may engage its stmt-th statement of global
	// iteration k (zero: no bound). It realizes the delayed dependencies
	// of a resumed evolution whose history predates this kernel: waiting
	// until the floor before a read or write adds exactly the historical
	// term to the (max,+) readiness expression of that transfer.
	Floor func(f *model.Function, stmt, k int) sim.Time
	// SourceFloor is Floor for source emissions (e.g. the backpressure a
	// source-fed FIFO carried over from before the resume point).
	SourceFloor func(s *model.Source, k int) sim.Time
}

// Runtime exposes the channel runtimes created by Attach.
type Runtime struct {
	Chans map[*model.Channel]chanrt.RT
}

// Attach spawns event-driven processes for the architecture's functions,
// sources and sinks onto an existing kernel. The architecture must have
// been validated. Partial setups (hybrid models) use Skip/Chans to carve
// out the abstracted group.
func Attach(k *sim.Kernel, a *model.Architecture, opts AttachOptions) (*Runtime, error) {
	b := &builder{arch: a, kernel: k, opts: opts, trace: opts.Trace, chans: map[*model.Channel]chanrt.RT{}}
	for ch, rt := range opts.Chans {
		b.chans[ch] = rt
	}
	if err := b.build(opts); err != nil {
		return nil, err
	}
	return &Runtime{Chans: b.chans}, nil
}

type builder struct {
	arch   *model.Architecture
	kernel *sim.Kernel
	opts   AttachOptions
	trace  *observe.Trace
	chans  map[*model.Channel]chanrt.RT
}

func (b *builder) build(opts AttachOptions) error {
	for _, ch := range b.arch.Channels {
		if _, ok := b.chans[ch]; ok {
			continue
		}
		if opts.SkipChannel != nil && opts.SkipChannel(ch) {
			continue
		}
		b.chans[ch] = chanrt.New(b.kernel, ch, b.trace)
	}

	resources := map[*model.Resource]*resourceRT{}
	for _, f := range b.arch.Functions {
		if opts.Skip != nil && opts.Skip(f) {
			continue
		}
		if _, ok := resources[f.Resource]; !ok {
			resources[f.Resource] = newResourceRT(b.kernel, f.Resource)
		}
		execs := make(map[int]*model.ExecInfo)
		for i := range f.Body {
			if _, ok := f.Body[i].(model.Exec); ok {
				info, err := b.arch.ExecInfoOf(f, i)
				if err != nil {
					return err
				}
				execs[i] = info
			}
		}
		fn := f
		rt := resources[f.Resource]
		b.kernel.Spawn(fn.Name, func(p *sim.Proc) {
			b.runFunction(p, fn, rt, execs)
		})
	}

	for _, s := range b.arch.Sources {
		src := s
		ch := b.chans[s.Ch]
		if ch == nil {
			return fmt.Errorf("baseline: source %q has no channel runtime", s.Name)
		}
		first, last := opts.IterOffset, src.Count
		if opts.IterLimit > 0 && opts.IterLimit < last {
			last = opts.IterLimit
		}
		floor := opts.SourceFloor
		b.kernel.Spawn(src.Name, func(p *sim.Proc) {
			for k := first; k < last; k++ {
				u := src.Schedule(k)
				if u.IsEpsilon() {
					panic(fmt.Sprintf("baseline: source %q schedule(%d) is ε", src.Name, k))
				}
				p.WaitUntil(sim.Time(u))
				if floor != nil {
					if fl := floor(src, k); fl > p.Now() {
						p.WaitUntil(fl)
					}
				}
				tok := src.Tokens(k)
				tok.K = k
				ch.Write(p, tok)
			}
		})
	}

	for _, s := range b.arch.Sinks {
		ch := b.chans[s.Ch]
		if ch == nil {
			return fmt.Errorf("baseline: sink %q has no channel runtime", s.Name)
		}
		b.kernel.Spawn(s.Name, func(p *sim.Proc) {
			for {
				ch.Read(p)
			}
		})
	}
	return nil
}

// runFunction executes one application function: acquire the turn in the
// resource rotation, run the body statements, release the turn.
func (b *builder) runFunction(p *sim.Proc, f *model.Function, rt *resourceRT, execs map[int]*model.ExecInfo) {
	m := len(f.Resource.Rotation)
	skip := GateSkipped(f)
	off := b.opts.IterOffset
	floor := b.opts.Floor
	var cur model.Token
	for k := 0; ; k++ {
		gk := off + k
		turn := k*m + f.RotIndex
		rt.waitTurn(p, turn, skip)
		for i, st := range f.Body {
			if floor != nil {
				if fl := floor(f, i, gk); fl > p.Now() {
					p.WaitUntil(fl)
				}
			}
			switch s := st.(type) {
			case model.Read:
				cur = b.chans[s.Ch].Read(p)
			case model.Write:
				b.chans[s.Ch].Write(p, cur)
			case model.Exec:
				info := execs[i]
				load := s.Cost(cur)
				dur := f.Resource.DurationOf(load)
				if b.trace != nil {
					now := maxplus.T(p.Now())
					b.trace.RecordActivity(observe.Activity{
						Resource: f.Resource.Name,
						Label:    info.Label,
						K:        gk,
						Start:    now,
						End:      maxplus.Otimes(now, dur),
						Ops:      load.Ops,
					})
				}
				if dur > 0 {
					p.Wait(sim.Time(dur))
				}
			}
		}
		// Bodies ending in an Exec have no transfer marking the turn end;
		// record the auxiliary end instant for comparison with the
		// equivalent model.
		if b.trace != nil {
			if _, ok := f.Body[len(f.Body)-1].(model.Exec); ok {
				b.trace.RecordInstant("end:"+f.Name, maxplus.T(p.Now()))
			}
		}
		rt.endTurn(turn, f.RotIndex)
	}
}
