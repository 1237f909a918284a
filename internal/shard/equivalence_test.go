package shard

import (
	"fmt"
	"testing"

	"dyncomp/internal/serve"
	"dyncomp/internal/zoo"
)

// scenarioSweeps spans a small structurally diverse grid per registered
// scenario: at least one structure-changing axis (several shape
// cohorts, so the consistent-hash ring actually shards) and one
// dynamics axis (so cohorts are wider than one point and the batched
// lanes fill).
var scenarioSweeps = map[string]serve.SweepRequest{
	"didactic": {
		// stages 0 does not build: the coordinator fails that point at
		// plan time, with the message the local sweep attaches.
		Scenario: "didactic",
		Axes: []serve.Axis{
			{Name: "stages", Values: []int64{0, 1, 2}},
			{Name: "seed", Values: []int64{3, 5, 7}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"chain": {
		Scenario: "chain",
		Axes: []serve.Axis{
			{Name: "stages", Values: []int64{2, 3}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"pipeline": {
		Scenario: "pipeline",
		Axes: []serve.Axis{
			{Name: "xsize", Values: []int64{3, 4}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"phased": {
		Scenario: "phased",
		Axes: []serve.Axis{
			{Name: "stages", Values: []int64{1, 2}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"forkjoin": {
		Scenario: "forkjoin",
		Axes: []serve.Axis{
			{Name: "workers", Values: []int64{2, 3}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"random": {
		// Every seed is its own structural shape: the sharpest sharding
		// test — four cohorts of two points each.
		Scenario: "random",
		Axes: []serve.Axis{
			{Name: "seed", Values: []int64{1, 2, 3, 4}},
			{Name: "tokens", Values: []int64{30, 40}},
		},
	},
	"lte": {
		Scenario: "lte",
		Axes: []serve.Axis{
			{Name: "symbols", Values: []int64{20, 30}},
			{Name: "seed", Values: []int64{3, 5}},
		},
	},
}

// The fabric's acceptance property: every registered zoo scenario ×
// engines {equivalent, hybrid, adaptive}, swept through in-process
// fleets of 1 and of 3 workers with batched lanes and small chunks (so
// every job spans several chunks and cohorts split across dispatches),
// is bit-identical to the single-process sweep of the same request —
// per-point engine counters, error strings, event ratios, point/shape
// counts, batch counts and batched-cohort occupancy. The fleet size is
// one more input the result must not depend on. The hybrid engine runs
// wherever the scenario declares a canonical group, exactly as the
// single-process API would accept it.
func TestFleetSweepBitIdenticalOnEveryScenario(t *testing.T) {
	scenarios := zoo.Scenarios()
	if len(scenarios) < 7 {
		t.Fatalf("scenario registry holds %d scenarios, want at least 7", len(scenarios))
	}
	fleetSizes := []int{1, 3}
	coords := make([]string, len(fleetSizes))
	for i, n := range fleetSizes {
		_, ts := newCoord(t, Config{Workers: newFleet(t, n), ChunkPoints: 4})
		coords[i] = ts.URL
	}

	for _, sc := range scenarios {
		req, ok := scenarioSweeps[sc.Name]
		if !ok {
			t.Fatalf("scenario %q has no sweep spec in this test; add one", sc.Name)
		}
		for _, engineName := range []string{"equivalent", "hybrid", "adaptive"} {
			if engineName == "hybrid" && sc.HybridGroup == nil {
				continue // no canonical group; the API rejects it either way
			}
			t.Run(sc.Name+"/"+engineName, func(t *testing.T) {
				r := req
				r.Engine = engineName
				r.Options.BatchWidth = 2
				// Aggregate statistics need the baseline ratios on at
				// least one configuration; keep it to the cheapest
				// scenario so the suite stays fast.
				if sc.Name == "didactic" && engineName == "equivalent" {
					r.Options.Baseline = true
				}

				local := localSweep(t, r)
				for i, n := range fleetSizes {
					t.Run(fmt.Sprintf("fleet%d", n), func(t *testing.T) {
						job := submitSweep(t, coords[i], r)
						res := waitTerminal(t, coords[i], job.ID)
						assertBitIdentical(t, res, local)
						uniqueIndexParams(t, res.Points)
					})
				}
			})
		}
	}
}
