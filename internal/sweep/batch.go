package sweep

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
)

// Chunk is one unit of batched dispatch cut by the cohort planner: up
// to the planner's size points of one shape cohort, in grid order.
type Chunk struct {
	// Shape is the cohort's structural shape (derive.ShapeKey); a
	// distributed coordinator routes the chunk on it.
	Shape string
	// Members are the chunk's positions in the planned point slice —
	// the row-major grid indices when the slice is the whole Grid.
	Members []int
	// derive and group are the per-point options every member shares.
	derive derive.Options
	group  []string
}

// cohortKey names the equivalence class of points a single batched run
// can carry: one structural shape evaluated under one set of per-point
// options.
func cohortKey(pp prepared) string {
	return fmt.Sprintf("%s\x00pad=%d reduce=%t\x00%s",
		pp.shape, pp.derive.PadNodes, pp.derive.Reduce, strings.Join(pp.group, ","))
}

// Plan is the cohort planner for a distributed coordinator: it prepares
// every point, groups the prepared points by cohort key in grid order
// and cuts each cohort into chunks of at most size points. It returns
// the chunks and the points that failed preparation, each with the
// error the sweep attaches. The batched sweep cuts its batches with the
// same planner, so a coordinator that plans the whole Grid with a size
// aligned to BatchWidth hands its workers chunks whose batches are
// exactly the single-process sweep's. Points are prepared one at a
// time and their architectures are not kept.
func Plan(pts []Point, gen Generator, opts Options, size int) ([]Chunk, []PointResult) {
	chunks, _, errs := plan(context.Background(), pts, gen, opts, size, 1, false)
	var failed []PointResult
	for i, err := range errs {
		if err != nil {
			failed = append(failed, PointResult{Point: pts[i], Err: err})
		}
	}
	return chunks, failed
}

// plan prepares the points on a pool of workers (a cancelled ctx fails
// the points not yet prepared), groups the prepared ones into cohorts in
// grid order and cuts each cohort into chunks of at most size points —
// grid neighbours stay lane neighbours, so the cut is deterministic and
// independent of the worker count. It returns the chunks, each point's
// architecture when keepArchs is set, and each point's preparation
// error (nil for a chunk member). Only one copy of each cohort's shape
// and options is retained, so planning a large grid holds per point no
// more than its cohort number (and its architecture, if kept).
func plan(ctx context.Context, pts []Point, gen Generator, opts Options, size, workers int, keepArchs bool) ([]Chunk, []*model.Architecture, []error) {
	archs := make([]*model.Architecture, len(pts))
	errs := make([]error, len(pts))
	cohortOf := make([]int, len(pts))
	var (
		mu      sync.Mutex
		byKey   = map[string]int{}
		cohorts []Chunk // one per cohort key: shape and options, no members
	)
	forEach(ctx, len(pts), workers, func(i int) {
		pp, err := prepare(pts[i], gen, opts)
		if err != nil {
			errs[i] = err
			return
		}
		if keepArchs {
			archs[i] = pp.arch
		}
		key := cohortKey(pp)
		mu.Lock()
		c, ok := byKey[key]
		if !ok {
			c = len(cohorts)
			byKey[key] = c
			cohorts = append(cohorts, Chunk{Shape: pp.shape, derive: pp.derive, group: pp.group})
		}
		mu.Unlock()
		cohortOf[i] = c
	}, func(i int, err error) { errs[i] = err })

	// Cohorts in the grid order of their first member.
	members := make([][]int, len(cohorts))
	var order []int
	for i := range pts {
		if errs[i] != nil {
			continue
		}
		c := cohortOf[i]
		if members[c] == nil {
			order = append(order, c)
		}
		members[c] = append(members[c], i)
	}
	var chunks []Chunk
	for _, c := range order {
		for m := members[c]; len(m) > 0; {
			n := min(size, len(m))
			chunk := cohorts[c]
			chunk.Members = m[:n:n]
			chunks = append(chunks, chunk)
			m = m[n:]
		}
	}
	return chunks, archs, errs
}

// runBatched is the batch-first evaluation strategy: the cohort planner
// pre-generates every point on the worker pool and cuts its shape
// cohorts into chunks of Options.BatchWidth; then the same pool
// evaluates the chunks. Points that fail preparation are finished right
// away. Each chunk is one RunBatch call; a wholesale batch failure
// re-evaluates that chunk's points through the scalar path (which
// regenerates them), per-lane failures fail only their point.
// Baselines, when requested, run per point — the reference executor has
// no batched form.
//
// Progress is coalesced: one notification for the points that failed
// preparation and one per finished chunk, advancing by the chunk size,
// still summing to the total under cancellation. It returns the
// batched engine invocations that ran and the points they evaluated.
func runBatched(ctx context.Context, pts []Point, gen Generator, br engine.BatchRunner, refEng engine.Engine, opts Options, cache *derive.Cache, workers int, results []PointResult, report func(int)) (batches, points int) {
	chunks, archs, errs := plan(ctx, pts, gen, opts, opts.BatchWidth, workers, true)
	nfailed := 0
	for i, err := range errs {
		if err != nil {
			results[i] = PointResult{Point: pts[i], Err: err}
			nfailed++
		}
	}
	report(nfailed)

	var nbatches, batched atomic.Int64
	forEach(ctx, len(chunks), workers, func(ci int) {
		c := chunks[ci]
		if evalChunk(ctx, c, pts, archs, gen, br, refEng, opts, cache, results) {
			nbatches.Add(1)
			batched.Add(int64(len(c.Members)))
		}
		report(len(c.Members))
	}, func(ci int, err error) {
		for _, i := range chunks[ci].Members {
			results[i] = PointResult{Point: pts[i], Err: err}
		}
		report(len(chunks[ci].Members))
	})
	return int(nbatches.Load()), int(batched.Load())
}

// evalChunk evaluates one shape cohort chunk through the batched engine
// path and reports whether the batch ran; on a wholesale batch failure
// every point of the chunk re-runs through the scalar path instead.
func evalChunk(ctx context.Context, c Chunk, pts []Point, archs []*model.Architecture, gen Generator, br engine.BatchRunner, refEng engine.Engine, opts Options, cache *derive.Cache, results []PointResult) bool {
	lanes := make([]*model.Architecture, len(c.Members))
	for l, i := range c.Members {
		lanes[l] = archs[i]
	}
	eopts := opts.engineOptions(c.derive, c.group, cache)
	out, laneErrs, err := runBatchRecovered(ctx, br, lanes, eopts)
	if err != nil {
		// Wholesale failure: nothing ran. Fall back to scalar
		// evaluation so a batch-path limitation never fails a point a
		// per-point sweep would have completed.
		for _, i := range c.Members {
			results[i] = evalPoint(ctx, pts[i], gen, br, refEng, opts, cache)
		}
		return false
	}
	for l, i := range c.Members {
		p := pts[i]
		if laneErrs[l] != nil {
			results[i] = PointResult{Point: p, Err: fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, laneErrs[l])}
			continue
		}
		pr := PointResult{Point: p, Run: pointStats(out[l]), Trace: out[l].Trace}
		if opts.Baseline {
			addBaseline(ctx, p, gen, refEng, eopts, &pr)
		}
		results[i] = pr
	}
	return true
}

// runBatchRecovered shields the sweep from a panicking batched run the
// way evalPoint shields it from a panicking scalar one; a panic reads as
// a wholesale failure, triggering the scalar fallback.
func runBatchRecovered(ctx context.Context, br engine.BatchRunner, archs []*model.Architecture, eopts engine.Options) (out []*engine.Result, laneErrs []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, laneErrs = nil, nil
			err = fmt.Errorf("sweep: batched run panicked: %v", r)
		}
	}()
	return br.RunBatch(ctx, archs, eopts)
}
