package serve

import (
	"errors"
	"net/http"
	"runtime"
	"time"

	"dyncomp/internal/jobs"
	"dyncomp/internal/model"
	"dyncomp/internal/sim"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// layeredParams answers parameter lookups from the sweep point first and
// the request's fixed params second, so a sweep request can pin
// parameters it does not sweep (an axis of the same name wins).
type layeredParams struct {
	p     sweep.Point
	fixed zoo.ParamMap
}

func (l layeredParams) Lookup(name string) (int64, bool) {
	if v, ok := l.p.Lookup(name); ok {
		return v, ok
	}
	return l.fixed.Lookup(name)
}

// SweepPlan is a validated sweep request compiled into the sweep
// engine's inputs, shared by the job path (POST /v1/sweeps), the
// distributed chunk path (POST /v1/chunks) and the coordinator
// (internal/shard) — every consumer applies exactly the validation and
// option mapping a single-process job would, which is what keeps a
// sharded sweep bit-identical to a local one.
type SweepPlan struct {
	Engine   string
	Scenario string
	Axes     []sweep.Axis
	Opts     sweep.Options
	Gen      sweep.Generator
	Total    int
}

// SweepDefaults supplies the deployment-level defaults CompileSweep
// applies to request fields left at zero. The zero value picks the same
// production-lean defaults a zero serve.Config would.
type SweepDefaults struct {
	// Workers fills options.workers (default GOMAXPROCS).
	Workers int
	// BatchWidth fills options.batch_width (default 0: per-point).
	BatchWidth int
	// MaxGridPoints rejects grids beyond this many points (default
	// 100000).
	MaxGridPoints int
}

// CompileSweep validates everything about a sweep request that can fail
// fast — registry names (or the inline architecture spec), parameters,
// axes, grid size, group, batch width — and compiles it into a
// SweepPlan ready for sweep.RunContext, sweep.RunIndicesContext or
// distributed planning (sweep.Plan).
func CompileSweep(req SweepRequest, d SweepDefaults) (*SweepPlan, *RequestError) {
	if d.Workers <= 0 {
		d.Workers = runtime.GOMAXPROCS(0)
	}
	if d.BatchWidth < 0 {
		d.BatchWidth = 0
	}
	if d.MaxGridPoints <= 0 {
		d.MaxGridPoints = 100000
	}
	eng, src, _, aerr := resolveSource(req.Engine, req.Scenario, req.Architecture, req.Params)
	if aerr != nil {
		return nil, aerr
	}
	axes, points, aerr := compileAxes(req.Axes, src.Check, d.MaxGridPoints)
	if aerr != nil {
		return nil, aerr
	}
	fixed := zoo.ParamMap(req.Params)
	if _, aerr := hybridGroup(eng, src, req.Options.Group, fixed); aerr != nil {
		return nil, aerr
	}

	o := req.Options
	if o.BatchWidth < 0 {
		return nil, requestErrorf(http.StatusBadRequest, CodeBadJSON,
			"options.batch_width must be non-negative, got %d", o.BatchWidth)
	}
	if o.SampleTolerance < 0 {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidSample,
			"options.sample_tolerance must be non-negative, got %g", o.SampleTolerance)
	}
	if o.SampleBudget < 0 {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidSample,
			"options.sample_budget must be non-negative, got %d", o.SampleBudget)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = d.Workers
	}
	batchWidth := o.BatchWidth
	if batchWidth == 0 {
		batchWidth = d.BatchWidth
	}
	opts := sweep.Options{
		Workers:    workers,
		Engine:     eng.Name(),
		Window:     o.WindowK,
		Confidence: o.Confidence,
		Baseline:   o.Baseline,
		Limit:      sim.Time(o.LimitNs),
		BatchWidth: batchWidth,
		Sample: sweep.SampleOptions{
			Tolerance: o.SampleTolerance,
			Budget:    o.SampleBudget,
			Verify:    o.SampleVerify,
		},
	}
	opts.Derive.Reduce = o.Reduce
	if len(o.Group) > 0 {
		opts.Group = o.Group
	} else if eng.Name() == "hybrid" {
		// Per point: axes may change the structure and with it the
		// canonical group (e.g. sweeping the fork-join worker count).
		opts.GroupFor = func(p sweep.Point) []string {
			return src.Group(layeredParams{p: p, fixed: fixed})
		}
	}
	return &SweepPlan{
		Engine:   eng.Name(),
		Scenario: src.Name,
		Axes:     axes,
		Opts:     opts,
		Total:    points,
		Gen: func(p sweep.Point) (*model.Architecture, error) {
			return src.Build(layeredParams{p: p, fixed: fixed})
		},
	}, nil
}

// compileAxes converts the wire axes and bounds the grid they span.
// Axis names are model parameters too, checked by the model source's
// check: a typoed axis would sweep a knob no builder reads, silently
// evaluating one point N times.
func compileAxes(wire []Axis, check func(map[string]int64) error, maxPoints int) ([]sweep.Axis, int, *RequestError) {
	axes, err := sweepAxes(wire)
	if err != nil {
		return nil, 0, requestErrorf(http.StatusBadRequest, CodeInvalidAxes, "%v", err)
	}
	axisParams := map[string]int64{}
	for _, ax := range axes {
		axisParams[ax.Name] = ax.Values[0]
	}
	if err := check(axisParams); err != nil {
		return nil, 0, requestErrorf(http.StatusBadRequest, CodeInvalidAxes, "%v", err)
	}
	points := 1
	for _, ax := range axes {
		points *= len(ax.Values)
		if points > maxPoints {
			return nil, 0, requestErrorf(http.StatusBadRequest, CodeGridTooLarge,
				"grid exceeds %d points", maxPoints)
		}
	}
	return axes, points, nil
}

// prepareSweep is CompileSweep under this server's configured defaults.
func (s *Server) prepareSweep(req SweepRequest) (*SweepPlan, *RequestError) {
	return CompileSweep(req, SweepDefaults{
		Workers:       s.cfg.SweepWorkers,
		BatchWidth:    s.cfg.SweepBatchWidth,
		MaxGridPoints: s.cfg.MaxGridPoints,
	})
}

// handleSweepCreate serves POST /v1/sweeps: validate, then queue the
// job and answer 202 with its lifecycle snapshot.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	plan, aerr := s.prepareSweep(req)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	caller := callerID(r)
	if !s.quotas.reserveJob(caller, s.cfg.QuotaJobs) {
		s.rejections.Inc("quota_jobs")
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"caller %q already has %d jobs in flight", caller, s.cfg.QuotaJobs)
		return
	}
	if !s.admitPoints(w, r, plan.Total) {
		s.quotas.releaseJob(caller)
		return
	}
	j := &job{axes: plan.Axes, gen: plan.Gen, opts: plan.Opts}
	j.Info = Job{Engine: plan.Engine, Scenario: plan.Scenario, Total: plan.Total, Created: time.Now()}
	// Count every terminal state exactly once, wherever the job settles
	// (worker, queued-cancel, shutdown drain) — and return the caller's
	// concurrent-job quota slot there, the single point every settle
	// path funnels through.
	j.OnSettle = func(st jobs.State, _ error) {
		s.quotas.releaseJob(caller)
		s.jobsTotal.Inc(st.String())
	}
	if err := s.jobs.add(s.baseCtx, j); err != nil {
		s.quotas.releaseJob(caller) // never enqueued: OnSettle will not run
		if errors.Is(err, errShuttingDown) {
			WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "%v", err)
		} else {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "%v", err)
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// JobHandlers serves the sweep job API beyond submission over a job
// table — list, get, cancel, events — with one set of handlers for
// dyncomp-serve and the coordinator, so both answer byte-identically.
type JobHandlers[J jobs.Entry] struct {
	Jobs *jobs.Table[J]
	// Result renders GET /v1/sweeps/{id}: the lifecycle plus, in terminal
	// states, the statistics and per-point results.
	Result func(J) JobResult
	// StreamWriteTimeout bounds each event-stream write; Quit, when
	// closed, ends every event stream (a shutdown that leaves jobs
	// unsettled).
	StreamWriteTimeout time.Duration
	Quit               <-chan struct{}
}

// Lookup resolves the {id} path segment, answering 404 itself.
func (a JobHandlers[J]) Lookup(w http.ResponseWriter, r *http.Request) (J, bool) {
	j, ok := a.Jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, CodeJobNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

// List serves GET /v1/sweeps: every job, creation order.
func (a JobHandlers[J]) List(w http.ResponseWriter, r *http.Request) {
	all := a.Jobs.List()
	out := struct {
		Jobs []Job `json:"jobs"`
	}{Jobs: make([]Job, 0, len(all))}
	for _, j := range all {
		out.Jobs = append(out.Jobs, j.Snapshot())
	}
	WriteJSON(w, http.StatusOK, out)
}

// Get serves GET /v1/sweeps/{id}.
func (a JobHandlers[J]) Get(w http.ResponseWriter, r *http.Request) {
	if j, ok := a.Lookup(w, r); ok {
		WriteJSON(w, http.StatusOK, a.Result(j))
	}
}

// Cancel serves DELETE /v1/sweeps/{id}: queued jobs settle as cancelled
// immediately, running jobs get their context cancelled and settle when
// their runner observes it (the response then reports the transient
// "cancelling" state); terminal jobs answer 409.
func (a JobHandlers[J]) Cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := a.Lookup(w, r)
	if !ok {
		return
	}
	if st, ok := j.RequestCancel(time.Now()); !ok {
		WriteError(w, http.StatusConflict, CodeJobTerminal,
			"job %s already settled as %q", r.PathValue("id"), st)
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// Events serves GET /v1/sweeps/{id}/events as a server-sent event
// stream: one initial "state" snapshot, "progress" events with absolute
// done/total counts as points finish, a final "state" event when the
// job settles, then EOF (see jobs.ServeEvents).
func (a JobHandlers[J]) Events(w http.ResponseWriter, r *http.Request) {
	if j, ok := a.Lookup(w, r); ok {
		jobs.ServeEvents(w, r, a.StreamWriteTimeout, a.Quit, j)
	}
}
