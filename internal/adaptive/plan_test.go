package adaptive

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// randomStream returns a seeded signature-transition stream of n
// iterations: runs of random length, each steady with its own
// probability, so the stream mixes long quiet spells with turbulence.
func randomStream(rng *rand.Rand, n int) []bool {
	same := make([]bool, n)
	for k := 1; k < n; {
		p := []float64{0.3, 0.8, 0.97, 1}[rng.Intn(4)]
		for end := min(k+1+rng.Intn(40), n); k < end; k++ {
			same[k] = rng.Float64() < p
		}
	}
	return same
}

// stepPlan is the planner's oracle: it walks the stream one iteration
// at a time, feeding the detector every transition as it passes and
// asking it for confirmation every `every` iterations of a detailed
// phase; an abstract phase ends at the first changed signature.
func stepPlan(n int, det detector, same []bool, every int) []span {
	var spans []span
	k0, abstract := 0, false
	for k := 1; k < n; k++ {
		det.observe(same[k])
		if abstract && !same[k] || !abstract && (k-k0)%every == 0 && det.confirmed() {
			spans = append(spans, span{abstract: abstract, k0: k0, k1: k})
			k0, abstract = k, !abstract
		}
	}
	return append(spans, span{abstract: abstract, k0: k0, k1: n})
}

// TestPlanMatchesStepwise checks the planner on seeded random streams
// against the one-iteration-at-a-time oracle for both policies, and the
// span invariants directly: spans tile [0, n) contiguously, start
// detailed and alternate modes; an abstract span holds only unchanged
// signatures and ends exactly at the first changed one; a fixed-window
// switch lands on a check point k0 + j·w of its detailed span.
func TestPlanMatchesStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var switches [3]int // per policy below: the streams must exercise switching
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		same := randomStream(rng, n)
		w := 1 + rng.Intn(10)
		for p, tc := range []struct {
			det, oracle detector
			every       int
		}{
			{newConfidence(0), newConfidence(0), 1},
			{newConfidence(0.5), newConfidence(0.5), 1},
			{&fixedWindow{w: w}, &fixedWindow{w: w}, w},
		} {
			name := tc.det.String()
			spans := plan(n, tc.det, same)
			if want := stepPlan(n, tc.oracle, same, tc.every); !slices.Equal(spans, want) {
				t.Fatalf("trial %d %s: plan %v, stepwise %v", trial, name, spans, want)
			}
			switches[p] += len(spans) / 2
			next := 0
			for i, sp := range spans {
				if sp.k0 != next || sp.k1 <= sp.k0 || sp.abstract != (i%2 == 1) {
					t.Fatalf("trial %d %s: span %d %+v does not tile from %d alternating", trial, name, i, sp, next)
				}
				next = sp.k1
				if !sp.abstract {
					if sp.k1 < n && (sp.k1-sp.k0)%tc.every != 0 {
						t.Fatalf("trial %d %s: switch at %d off the check points of span %+v", trial, name, sp.k1, sp)
					}
					continue
				}
				for k := sp.k0; k < sp.k1; k++ {
					if !same[k] {
						t.Fatalf("trial %d %s: abstract span %+v holds changed iteration %d", trial, name, sp, k)
					}
				}
				if sp.k1 < n && same[sp.k1] {
					t.Fatalf("trial %d %s: abstract span %+v ends before the first change", trial, name, sp)
				}
			}
			if next != n {
				t.Fatalf("trial %d %s: spans end at %d, want %d", trial, name, next, n)
			}
		}
	}
	for p, s := range switches {
		if s < 100 {
			t.Errorf("policy %d switched only %d times over all streams", p, s)
		}
	}
}

// TestPhasedPlanGolden pins the window_k contract end to end: the phase
// plan of the reference phase-changing workload under the historical
// fixed window and under the default confidence detector. A planner
// change that moves a switch point fails here.
func TestPhasedPlanGolden(t *testing.T) {
	type ph struct {
		mode   string
		k0, k1 int
	}
	d, a := engine.ModeDetailed, engine.ModeAbstract
	for _, tc := range []struct {
		opts engine.Options
		want []ph
	}{
		{engine.Options{WindowK: DefaultWindow}, []ph{
			{d, 0, 16}, {a, 16, 180}, {d, 180, 220}, {a, 220, 390}, {d, 390, 430}, {a, 430, 600}}},
		{engine.Options{}, []ph{
			{d, 0, 6}, {a, 6, 180}, {d, 180, 221}, {a, 221, 390}, {d, 390, 430}, {a, 430, 600}}},
	} {
		res, err := Run(context.Background(), zoo.Phased(zoo.PhasedSpec{Tokens: 600, Period: 1100, Seed: 7}), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []ph
		for _, p := range res.Phases {
			got = append(got, ph{p.Mode, p.StartK, p.EndK})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("WindowK %d: phases %v, want %v", tc.opts.WindowK, got, tc.want)
		}
	}
}
