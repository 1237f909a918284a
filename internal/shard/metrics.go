package shard

// Coordinator observability: GET /metrics exposes the fabric's
// resilience counters through the shared registry, and GET /readyz is
// the readiness probe load balancers and upstream breakers key on: a
// coordinator with no live worker accepts jobs it cannot dispatch, so
// it reports not ready.

import (
	"net/http"

	"dyncomp/internal/serve"
)

// registerMetrics declares every GET /metrics family, in exposition
// order.
func (c *Coordinator) registerMetrics() {
	m := &c.metrics
	m.GaugeFunc("dyncomp_coord_workers", "Registered fleet members.",
		func() int64 { return int64(len(c.ring.workers())) })
	m.GaugeFunc("dyncomp_coord_workers_alive", "Fleet members with a closed breaker (in rotation).",
		func() int64 { return int64(c.ring.alive()) })
	m.GaugeVecFunc("dyncomp_coord_breaker_state", "Breaker state per worker (0 closed, 1 open, 2 half-open).",
		[]string{"worker"}, func(emit func(int64, ...string)) {
			for _, ws := range c.ring.workers() {
				v := int64(0)
				switch ws.Breaker {
				case breakerOpen.String():
					v = 1
				case breakerHalfOpen.String():
					v = 2
				}
				emit(v, ws.URL)
			}
		})
	c.breakerOpened = m.Counter("dyncomp_coord_breaker_opened_total", "Breakers opened (worker benched).")
	c.breakerClosedN = m.Counter("dyncomp_coord_breaker_closed_total", "Breakers closed by a successful readiness probe.")
	c.chunkRetries = m.Counter("dyncomp_coord_chunk_retries_total", "Chunk dispatch attempts past the first.")
	m.GaugeFunc("dyncomp_coord_jobs", "Jobs in the table.", func() int64 { return int64(c.jobs.Len()) })
	c.jobsEvicted = m.Counter("dyncomp_coord_jobs_evicted_total", "Settled jobs evicted by TTL or the MaxJobs cap.")
	c.compactions = m.Counter("dyncomp_coord_store_compactions_total", "Store compactions past evicted jobs.")
	c.panics = m.Counter("dyncomp_coord_panics_total", "Handler panics recovered by the middleware.")
	c.storeErrors = m.CounterVec("dyncomp_coord_store_errors_total",
		"Job store operations that failed, by operation (append_job, append_chunk, append_state, compact).", "op")
}

// handleReadyz answers whether the coordinator can make progress:
// not shutting down and at least one worker in rotation. /healthz stays
// pure liveness.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.baseCtx.Err() != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, "coordinator shutting down")
		return
	}
	if c.ring.alive() == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, "no worker in rotation")
		return
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}
