// Package hybrid implements partial abstraction — the paper's general
// formulation of the method: "the proposed method allows some of the
// architecture processes to be combined into a single equivalent
// executable model as seen by the simulator". A chosen group of functions
// is replaced by an equivalent model (Reception / ComputeInstant /
// Emission over the group's temporal dependency graph) while the rest of
// the architecture keeps running event-by-event; the two halves meet at
// the group's boundary channels.
//
// Exactness across the boundary needs one care the whole-architecture
// case does not: the group's emission instant y(k) is only the earliest
// possible boundary transfer — a slow external reader can make the true
// transfer later, and internal instants of later iterations reference it
// (the writer's rotation gate). The engine therefore confirms each output
// transfer as it happens, corrects the stored instant, and defers
// ComputeInstant(k) until iteration k-1 is confirmed. Because the output
// writer's turn k starts no earlier than the confirmed transfer k-1, the
// deferral never delays an emission, and every computed instant is final
// when produced.
//
// Scope: the group must be closed under resources (a resource's rotation
// is either fully abstracted or fully simulated), must emit through
// exactly one boundary output channel, and the boundary write must be its
// writer's final statement. Violations are reported as errors.
package hybrid

import (
	"context"
	"fmt"
	"time"

	"dyncomp/internal/baseline"
	"dyncomp/internal/chanrt"
	"dyncomp/internal/derive"
	uni "dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// hybEngine registers partial abstraction under the uniform engine
// contract.
type hybEngine struct{}

func (hybEngine) Name() string { return "hybrid" }

func (hybEngine) Run(ctx context.Context, a *model.Architecture, opts uni.Options) (*uni.Result, error) {
	return Run(ctx, a, opts)
}

func init() { uni.Register(hybEngine{}) }

// Run simulates the architecture with the functions named by
// opts.AbstractGroup abstracted into an equivalent model; the rest of the
// architecture runs event-by-event. It is the one engine that requires
// AbstractGroup. The group's graph is derived through opts.Cache (nil
// derives privately) with opts.Derive, inside the timed section.
func Run(ctx context.Context, a *model.Architecture, opts uni.Options) (*uni.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/hybrid")
	}
	begin := time.Now()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	group, err := resolveGroup(a, opts.AbstractGroup)
	if err != nil {
		return nil, err
	}
	iters, err := a.Iterations()
	if err != nil {
		return nil, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < iters {
		iters = opts.IterLimit
	}
	sub, err := buildSub(a, group, iters)
	if err != nil {
		return nil, err
	}
	dres, err := opts.Cache.Derive(sub.arch, opts.Derive)
	if err != nil {
		return nil, err
	}
	if err := checkBoundary(dres); err != nil {
		return nil, err
	}

	limit := sim.Time(opts.LimitNs)
	if limit <= 0 {
		limit = sim.Forever
	}
	kern := sim.New()

	// Boundary channels get shared runtimes that record the real transfer
	// instants; internal channels of the group exist only as computed
	// instants.
	boundary := map[*model.Channel]chanrt.RT{}
	for _, ch := range sub.inOrig {
		boundary[ch] = chanrt.New(kern, ch, trace)
	}
	outOrig := sub.outOrig[0]
	boundary[outOrig] = chanrt.New(kern, outOrig, trace)

	inGroup := func(f *model.Function) bool { return group[f] }
	internal := func(ch *model.Channel) bool { return sub.internal[ch] }
	if _, err := baseline.Attach(kern, a, baseline.AttachOptions{
		Trace:       trace,
		Skip:        inGroup,
		SkipChannel: internal,
		Chans:       boundary,
		IterLimit:   opts.IterLimit,
	}); err != nil {
		return nil, err
	}

	eng := newEngine(a, sub, dres, kern, trace, iters)
	eng.build(boundary)

	if err := kern.Run(limit); err != nil {
		return nil, err
	}
	done := eng.nodeDone[eng.outNode]
	if opts.Progress != nil {
		opts.Progress(done, done)
	}
	st := kern.Stats()
	return &uni.Result{
		Trace:       trace,
		Activations: st.Activations,
		Events:      st.Events(),
		FinalTimeNs: int64(st.FinalTime),
		WallNs:      time.Since(begin).Nanoseconds(),
		Iterations:  done,
		GraphNodes:  dres.Graph.NodeCountWithDelays(),
	}, nil
}

func resolveGroup(a *model.Architecture, names []string) (map[*model.Function]bool, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("hybrid: empty group (Options.AbstractGroup names the functions to abstract)")
	}
	byName := map[string]*model.Function{}
	for _, f := range a.Functions {
		byName[f.Name] = f
	}
	group := map[*model.Function]bool{}
	for _, n := range names {
		f, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("hybrid: unknown function %q", n)
		}
		group[f] = true
	}
	// Resource closure: rotations must not straddle the boundary.
	for _, r := range a.Resources {
		in, out := 0, 0
		for _, f := range r.Rotation {
			if group[f] {
				in++
			} else {
				out++
			}
		}
		if in > 0 && out > 0 {
			return nil, fmt.Errorf("hybrid: resource %q is shared between the group and the rest; abstract whole resources", r.Name)
		}
	}
	return group, nil
}

// checkBoundary enforces the supported abstraction boundary: exactly one
// output, whose node has no zero-delay dependents (other than the read
// node of its own FIFO channel).
func checkBoundary(dres *derive.Result) error {
	if len(dres.Inputs) == 0 {
		return fmt.Errorf("hybrid: group has no boundary inputs")
	}
	if len(dres.Outputs) != 1 {
		return fmt.Errorf("hybrid: group has %d boundary output channels; exactly 1 is supported", len(dres.Outputs))
	}
	out := dres.Outputs[0]
	g := dres.Graph
	for _, n := range g.Nodes() {
		for _, arc := range g.Incoming(n.ID) {
			if arc.From != out.Node || arc.Delay != 0 {
				continue
			}
			if out.Channel.Kind == model.FIFO && n.Name == out.Channel.Name+".r" {
				continue // the xw -> xr arc of the boundary FIFO itself
			}
			return fmt.Errorf("hybrid: instant %q depends on the boundary output in the same iteration; emit boundary outputs as the writer's final statement", n.Name)
		}
	}
	return nil
}

// boundaryLabels lists the instant labels recorded by the boundary
// channel runtimes, which the computed recording must skip.
func boundaryLabels(sub *subArch) map[string]bool {
	skip := map[string]bool{}
	mark := func(ch *model.Channel) {
		skip[ch.Name] = true
		skip[ch.Name+".w"] = true
		skip[ch.Name+".r"] = true
	}
	for _, ch := range sub.inOrig {
		mark(ch)
	}
	for _, ch := range sub.outOrig {
		mark(ch)
	}
	return skip
}
