package serve

import (
	"net/http"
	"time"

	"dyncomp/internal/tdg"
)

// predErrBuckets are the upper bounds of the prediction-error histogram
// (relative error; +Inf is implicit). The grid is log-spaced around the
// tolerances users actually request (0.1%–10%).
var predErrBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}

// registerMetrics declares every GET /metrics family, in exposition
// order: the request, run and job counters, then the cache, sweep and
// job-store series computed at scrape time.
func (s *Server) registerMetrics() {
	m := &s.metrics
	s.requests = m.CounterVec("dyncomp_serve_requests_total",
		"HTTP requests served, by endpoint and status class.", "endpoint", "class")
	s.runs = m.CounterVec("dyncomp_serve_runs_total",
		"Synchronous /v1/run evaluations, by engine.", "engine")
	s.jobsTotal = m.CounterVec("dyncomp_serve_jobs_total",
		"Sweep jobs that reached a terminal state, by state.", "state")
	s.chunks = m.CounterVec("dyncomp_serve_chunks_total",
		"Distributed sweep chunks evaluated for a coordinator, by engine.", "engine")
	s.optimizations = m.CounterVec("dyncomp_serve_optimizations_total",
		"Design-space optimizations completed, by engine.", "engine")
	s.rejections = m.CounterVec("dyncomp_serve_rejections_total",
		"Requests rejected by admission control, by reason (unauthorized, quota_jobs, quota_points, overloaded).", "reason")
	m.GaugeFunc("dyncomp_serve_inflight_requests",
		"Work requests currently in flight (run/optimize/chunks/sweep submissions).", s.inflight.Load)
	s.jobsEvicted = m.Counter("dyncomp_serve_jobs_evicted_total",
		"Settled jobs evicted by TTL or the max-jobs bound.")
	s.panics = m.Counter("dyncomp_serve_panics_total",
		"Handler panics recovered into structured 500s.")
	s.chunkPoints = m.Counter("dyncomp_serve_chunk_points_total",
		"Grid points evaluated through the chunk endpoint.")

	m.CounterFunc("dyncomp_serve_derive_cache_hits_total",
		"Derivation-cache requests served by rebinding.",
		func() int64 { hits, _ := s.cache.Stats(); return hits })
	m.CounterFunc("dyncomp_serve_derive_cache_misses_total",
		"Derivations actually performed (including re-derivations of evicted shapes).",
		func() int64 { _, misses := s.cache.Stats(); return misses })
	m.CounterFunc("dyncomp_serve_derive_cache_evictions_total",
		"Templates evicted by the LRU entry bound.", s.cache.Evictions)
	m.GaugeFunc("dyncomp_serve_derive_cache_shapes",
		"Cached structural shapes.", func() int64 { return int64(s.cache.Shapes()) })
	m.GaugeFunc("dyncomp_serve_derive_cache_entry_limit",
		"Entry bound of the derivation cache (0: unbounded).", func() int64 { return int64(s.cache.Limit()) })
	m.GaugeVecFunc("dyncomp_serve_derive_cache_shape_hits",
		"Requests served per cached shape (occupancy snapshot).", []string{"arch", "shape"},
		func(emit func(int64, ...string)) {
			for _, sh := range s.cache.Snapshot() {
				emit(sh.Hits, sh.Arch, sh.Digest)
			}
		})
	m.CounterFunc("dyncomp_serve_tdg_compiles_total",
		"Temporal-dependency-graph compilations performed process-wide; rebound shapes patch weight tables instead.",
		tdg.Compiles)

	s.sweepBatches = m.Counter("dyncomp_serve_sweep_batches_total",
		"Batched lane evaluations dispatched by sweep jobs.")
	s.sweepBatchPoints = m.Counter("dyncomp_serve_sweep_batch_points_total",
		"Grid points evaluated through the batched path.")
	s.sweepBatchLanes = m.Counter("dyncomp_serve_sweep_batch_lanes_total",
		"Lane capacity offered by those batches (batches x width).")
	m.GaugeFloat("dyncomp_serve_sweep_batch_occupancy",
		"Mean lane utilization of batched sweep evaluations (points / capacity).", "%.4f",
		func() float64 {
			if lanes := s.sweepBatchLanes.Load(); lanes > 0 {
				return float64(s.sweepBatchPoints.Load()) / float64(lanes)
			}
			return 0
		})
	s.sweepSimulated = m.Counter("dyncomp_serve_sweep_simulated_points_total",
		"Sampled-sweep grid points evaluated exactly.")
	s.sweepPredicted = m.Counter("dyncomp_serve_sweep_predicted_points_total",
		"Sampled-sweep grid points filled in by the surrogate model.")
	s.predErrors = m.Histogram("dyncomp_serve_sweep_pred_error",
		"Relative prediction error per predicted point (observed under sample_verify, declared bound otherwise).",
		predErrBuckets)

	m.GaugeFunc("dyncomp_serve_jobs_queued", "Sweep jobs waiting for a worker.",
		func() int64 { queued, _ := s.jobs.active(); return int64(queued) })
	m.GaugeFunc("dyncomp_serve_jobs_running", "Sweep jobs currently executing.",
		func() int64 { _, running := s.jobs.active(); return int64(running) })
	m.GaugeFloat("dyncomp_serve_uptime_seconds", "Seconds since the server started.", "%.3f",
		func() float64 { return time.Since(s.started).Seconds() })
}

// statusClasses are the class label values by status/100 (net/http
// only writes codes 100–999).
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// countRequests wraps a handler with the per-endpoint request counter,
// reading the status the AccessLog recorder captured.
func (s *Server) countRequests(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r)
		status := http.StatusOK
		if ar := recorderOf(w); ar != nil && ar.status != 0 {
			status = ar.status
		}
		s.requests.Inc(endpoint, statusClasses[status/100])
	}
}
