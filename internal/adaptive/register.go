package adaptive

import (
	"context"
	"time"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// adEngine adapts temporal abstraction to the uniform engine contract.
// Result.WallNs covers the whole adaptive run: graph (re-)derivation
// through the cache is part of how this engine executes, not a separate
// model-generation step.
type adEngine struct{}

func (adEngine) Name() string { return "adaptive" }

func (adEngine) Run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/adaptive")
	}
	begin := time.Now()
	res, err := Run(a, Options{
		Trace:      trace,
		Limit:      sim.Time(opts.LimitNs),
		Window:     opts.WindowK,
		Confidence: opts.Confidence,
		Derive:     opts.Derive,
		Cache:      opts.Cache,
		IterLimit:  opts.IterLimit,
		Ctx:        ctx,
		Progress:   opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	phases := make([]engine.Phase, len(res.Phases))
	for i, ph := range res.Phases {
		phases[i] = engine.Phase{
			Mode:        ph.Mode.String(),
			StartK:      ph.StartK,
			EndK:        ph.EndK,
			Events:      ph.Events,
			Activations: ph.Activations,
			WallNs:      ph.Wall.Nanoseconds(),
		}
	}
	return &engine.Result{
		Trace:       trace,
		Activations: res.Stats.Activations,
		Events:      res.Stats.Events(),
		FinalTimeNs: int64(res.Stats.FinalTime),
		WallNs:      time.Since(begin).Nanoseconds(),
		Iterations:  res.Iterations,
		GraphNodes:  res.GraphNodes,
		Switches:    res.Switches,
		Fallbacks:   res.Fallbacks,
		Phases:      phases,
	}, nil
}

func init() { engine.Register(adEngine{}) }
