package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var tinyCfg = config{seed: 3, tiny: true}

// Every workload, plain and traced, at tiny size: every metric named in
// BENCHMARK.json is emitted with its unit, and nothing fails.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(context.Background(), w.Name, tinyCfg, 300*time.Millisecond, traced,
				filepath.Join(t.TempDir(), "spans.ndjson"), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for _, m := range s.EndToEnd {
				if v := res.Metrics[m.Name].Value; !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
				}
			}
		}
	}
}

// The count metrics of the ledger repeat exactly across runs of one
// seed.
func TestLedgerCountsRepeatExactly(t *testing.T) {
	ctx := context.Background()
	a, ta, err := runLedger(ctx, tinyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := runLedger(ctx, tinyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ta.failed != 0 || tb.failed != 0 {
		t.Fatalf("ledger checks failed: %v %v", ta.notes, tb.notes)
	}
	n := 0
	for _, m := range perLayer {
		v, ok := a[m[0]]
		if m[1] != "count" || !ok {
			continue
		}
		n++
		if b[m[0]] != v {
			t.Errorf("count %s: %v then %v", m[0], v, b[m[0]])
		}
	}
	if n < 10 {
		t.Errorf("only %d ledger counts compared", n)
	}
}

// The output checks fire when an expectation is wrong: each workload,
// set up with one corrupted expected value, reports failures.
func TestCheckFiresOnCorruptedExpectation(t *testing.T) {
	ctx := context.Background()
	corrupt := map[string]func(instance){
		"engine-mix": func(i instance) { i.(*engineMix).ref[0].finalNs++ },
		"dse-sweep":  func(i instance) { i.(*dseSweep).want[0].events++ },
		"fleet-http": func(i instance) {
			f := i.(*fleetHTTP)
			f.runs[0].want.FinalTimeNs++
			f.jobs[0].want[0].activations++
		},
	}
	for _, w := range workloads {
		var setupChecks tally
		inst, err := w.setup(ctx, tinyCfg, &setupChecks)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if setupChecks.failed != 0 {
			t.Errorf("%s: set-up checks failed before corruption: %v", w.name, setupChecks.notes)
		}
		corrupt[w.name](inst)
		s, err := measure(ctx, inst, 200*time.Millisecond, nil)
		inst.close()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s.failed == 0 {
			t.Errorf("%s: %d operations checked against a corrupted expectation, none failed", w.name, s.attempted)
		}
	}
}

// A run that cannot start prints no result and exits non-zero.
func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut)
	if code == 0 {
		t.Fatal("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a result was printed: %s", out.String())
	}
}
