package shard

import (
	"encoding/json"
	"net/http"

	"dyncomp/internal/jobs"
	"dyncomp/internal/serve"
)

// The coordinator speaks the exact wire dialect of the serving layer —
// same error envelope, same strict decoding, same job read handlers
// (serve.JobHandlers), coordinator shutdown ending their event streams —
// so a fleet client is a single-process client pointed at a different
// port.

// ResultLine is one line of the GET /v1/sweeps/{id}/results NDJSON
// stream: either a point (Point set — one evaluated grid point, in
// arrival order) or the trailer (State set — the terminal state plus
// the fleet-level statistics), which is always the last line.
type ResultLine struct {
	Point *serve.ChunkPoint `json:"point,omitempty"`
	State string            `json:"state,omitempty"`
	Stats *serve.SweepStats `json:"stats,omitempty"`
}

// handleSweepResults serves GET /v1/sweeps/{id}/results as an NDJSON
// stream: one line per evaluated point in arrival order — streamed
// while the job runs, so a client consumes partial results long before
// the grid finishes — terminated by a trailer line carrying the
// terminal state and statistics. Connecting to a finished job replays
// every recorded point, which is how results of jobs completed before a
// coordinator restart are consumed. Every line, the trailer included,
// is written under a fresh write deadline.
func (c *Coordinator) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	j, ok := c.api.Lookup(w, r)
	if !ok {
		return
	}
	s := jobs.NewStream(w, "application/x-ndjson", c.cfg.StreamWriteTimeout)
	enc := json.NewEncoder(s)

	streamed := 0
	for {
		points, state, changed := j.arrivedSince(streamed)
		for i := range points {
			if err := enc.Encode(ResultLine{Point: &points[i]}); err != nil {
				return
			}
		}
		streamed += len(points)
		if state.Terminal() {
			_ = enc.Encode(ResultLine{State: state.String(), Stats: j.result().Stats})
			_ = s.Flush()
			return
		}
		if len(points) > 0 && s.Flush() != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-c.baseCtx.Done():
			return
		case <-changed:
		}
	}
}
