package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The committed BENCH_engines.json pins the kernel work of every engine
// on its workload: events, activations, graph size and adaptive mode
// changes are deterministic, so a fresh single-rep run must reproduce
// them exactly. Wall times are host-dependent and not compared.
func TestEngineReportMatchesCommittedCounts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_engines.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	fresh, err := engineReport(base.Tokens, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Scenario != base.Scenario {
		t.Fatalf("scenario %q, committed %q", fresh.Scenario, base.Scenario)
	}
	if len(fresh.Engines) != len(base.Engines) {
		t.Fatalf("%d engines, committed %d", len(fresh.Engines), len(base.Engines))
	}
	for i, b := range base.Engines {
		f := fresh.Engines[i]
		f.NsPerPoint, b.NsPerPoint = 0, 0
		if f != b {
			t.Errorf("engine row %d: fresh %+v, committed %+v", i, f, b)
		}
	}
}
