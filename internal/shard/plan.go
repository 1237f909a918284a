package shard

import (
	"dyncomp/internal/serve"
	"dyncomp/internal/sweep"
)

// jobPlan is a sweep spec compiled and cut for the fleet. Planning is
// deterministic — same spec, same chunks in the same order — which is
// what lets a restarted coordinator identify recovered chunk results by
// nothing more than their position in the plan. Each chunk is a run of
// row-major grid indices from a single shape cohort, routed on the ring
// by the cohort's structural shape.
type jobPlan struct {
	plan     *serve.SweepPlan
	chunks   []sweep.Chunk
	failed   []serve.ChunkPoint // points that fail before any worker sees them
	shapes   int                // distinct structural shapes across the grid
	effWidth int                // the batch width pinned into every chunk request
}

// planJob validates the spec through the exact path a worker will use
// (serve.CompileSweep), expands the grid and cuts it with the sweep's
// own cohort planner (sweep.Plan), so the chunks follow the cohorts the
// worker-side sweep will form.
//
// Chunk cuts are aligned to the effective batch width: every chunk but
// a cohort's last carries a multiple of the width, so the worker-side
// batching of the fleet's chunks produces exactly ceil(cohort/width)
// batches — the same count, occupancy and lane layout as a
// single-process sweep. Points whose generation or shape derivation
// fails are taken out of the plan and failed up front with the same
// error the sweep engine would attach.
func planJob(spec serve.SweepRequest, d serve.SweepDefaults, chunkPoints int) (*jobPlan, *serve.RequestError) {
	plan, rerr := serve.CompileSweep(spec, d)
	if rerr != nil {
		return nil, rerr
	}
	if plan.Opts.Sample.Enabled() {
		// The surrogate needs the whole grid to choose what to simulate;
		// a shard sees only its chunk. Sampled sweeps stay single-process.
		return nil, &serve.RequestError{Status: 400, Code: serve.CodeInvalidSample,
			Msg: "options.sample_tolerance is not supported on distributed sweeps"}
	}
	pts, err := sweep.Grid(plan.Axes)
	if err != nil {
		// CompileSweep already validated the axes; this is unreachable
		// short of a version skew between the two layers.
		return nil, &serve.RequestError{Status: 400, Code: serve.CodeInvalidAxes, Msg: err.Error()}
	}

	jp := &jobPlan{plan: plan, effWidth: plan.Opts.BatchWidth}

	// Chunk size: at least one batch, otherwise the target rounded down
	// to whole batches so only cohort tails run partial lanes.
	size := chunkPoints
	if w := jp.effWidth; w > 0 {
		size -= size % w
		if size < w {
			size = w
		}
	}
	if size < 1 {
		size = 1
	}

	chunks, failed := sweep.Plan(pts, plan.Gen, plan.Opts, size)
	jp.chunks = chunks
	for _, pr := range failed {
		jp.failed = append(jp.failed, failedPoint(pr.Point, pr.Err))
	}
	shapes := map[string]bool{}
	for _, c := range chunks {
		shapes[c.Shape] = true
	}
	jp.shapes = len(shapes)
	return jp, nil
}

// failedPoint renders a plan-time failure in the wire form a worker
// would have reported.
func failedPoint(p sweep.Point, err error) serve.ChunkPoint {
	params := map[string]int64{}
	for i, n := range p.Names {
		params[n] = p.Values[i]
	}
	return serve.ChunkPoint{
		Index:      p.Index,
		SweepPoint: serve.SweepPoint{Params: params, Error: err.Error()},
	}
}
