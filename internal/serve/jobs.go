package serve

import (
	"context"
	"errors"
	"time"

	"dyncomp/internal/jobs"
	"dyncomp/internal/sweep"
)

// job is one asynchronous sweep: the shared lifecycle plus the prepared
// sweep inputs and the result they produce. The lifecycle mutex guards
// res.
type job struct {
	jobs.Lifecycle

	axes []sweep.Axis
	gen  sweep.Generator
	opts sweep.Options // Progress and Cache are injected at run time
	res  *sweep.Result
}

// result renders the job including — in terminal states — the sweep
// statistics and per-point results.
func (j *job) result() JobResult {
	return jobs.Render(&j.Lifecycle, func() JobResult {
		out := JobResult{Job: j.SnapshotLocked()}
		if j.res != nil && j.StateLocked().Terminal() {
			out.Stats = statsJSON(j.res.Stats)
			out.Points = make([]SweepPoint, 0, len(j.res.Points))
			for _, pr := range j.res.Points {
				out.Points = append(out.Points, pointJSON(pr))
			}
		}
		return out
	})
}

// progress records point completion and wakes the job's watchers. The
// sweep engine serializes deliveries and keeps them strictly monotonic;
// the guard is defense in depth for any other producer (a settled job
// must report done == total, and progress bars must not move
// backwards).
func (j *job) progress(done, total int) {
	j.Lock()
	defer j.Unlock()
	if done <= j.Info.Done {
		return
	}
	j.Info.Done, j.Info.Total = done, total
	j.NotifyLocked()
}

// jobStore owns every job and the FIFO queue feeding the worker pool;
// add evicts the oldest settled jobs beyond maxJobs (0: unbounded).
type jobStore struct {
	all     jobs.Table[*job]
	maxJobs int
	queue   chan *job
}

// add registers a job and enqueues it. It refuses — registering nothing
// — once ctx (the server's) is done, since the pool is gone, and when
// the queue is full. Both checks run inside the table's registration,
// which Server.Close's final sweep of the table also takes, so a job is
// either refused or seen by that sweep; the queue send is non-blocking,
// so no lock is held across a wait.
func (st *jobStore) add(ctx context.Context, j *job) error {
	_, err := st.all.Add(st.maxJobs, func(id string) (*job, error) {
		if ctx.Err() != nil {
			return nil, errShuttingDown
		}
		j.Info.ID = id
		select {
		case st.queue <- j:
			return j, nil
		default:
			return nil, errQueueFull
		}
	})
	return err
}

// Submission failures the HTTP layer maps onto distinct status codes.
var (
	errQueueFull    = errors.New("job queue full")
	errShuttingDown = errors.New("server shutting down, no new jobs accepted")
)

// active counts queued and running jobs (for /metrics and /healthz).
func (st *jobStore) active() (queued, running int) {
	for _, j := range st.all.List() {
		j.Lock()
		switch j.StateLocked() {
		case jobs.Queued:
			queued++
		case jobs.Running:
			running++
		}
		j.Unlock()
	}
	return queued, running
}

// jobWorker is one slot of the bounded job pool: it pops queued jobs
// until the server shuts down.
func (s *Server) jobWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.jobs.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one sweep job end to end: transition to running,
// evaluate the grid with the server's shared derivation cache and the
// job's progress fan-out, then settle the terminal state.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.Start(cancel, time.Now()) { // cancelled while queued
		return
	}

	opts := j.opts
	opts.Cache = s.cache
	opts.Progress = j.progress
	res, err := sweep.RunContext(ctx, j.axes, j.gen, opts)
	if res != nil && res.Stats.Batches > 0 {
		s.sweepBatches.Add(int64(res.Stats.Batches))
		s.sweepBatchPoints.Add(int64(res.Stats.BatchedPoints))
		s.sweepBatchLanes.Add(int64(res.Stats.Batches * opts.BatchWidth))
	}
	if res != nil && res.Stats.SimulatedPoints+res.Stats.PredictedPoints > 0 {
		s.sweepSimulated.Add(int64(res.Stats.SimulatedPoints))
		s.sweepPredicted.Add(int64(res.Stats.PredictedPoints))
		for _, pr := range res.Points {
			if pr.Source != sweep.SourcePredicted {
				continue
			}
			// The observed error when sample_verify measured one, the
			// declared bound otherwise.
			e := pr.PredBound
			if opts.Sample.Verify {
				e = pr.PredObserved
			}
			s.predErrors.Observe(e)
		}
	}

	terminal := jobs.Done // point-level failures travel in the results
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancelled via DELETE or by server shutdown; the partial
		// result (completed points keep their stats) stays readable.
		terminal = jobs.Cancelled
	case res == nil:
		terminal = jobs.Failed
	}
	// The result lands before the terminal state: a reader that sees
	// the job settled always sees its result too.
	j.Lock()
	j.res = res
	j.Unlock()
	j.Settle(terminal, err, time.Now())
}
