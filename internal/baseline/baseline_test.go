package baseline

import (
	"context"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// didacticDirect evaluates the paper's equations (1)-(6) literally with
// the zoo's duration streams, as the ground truth for the event-driven
// executor.
func didacticDirect(n int, seed int64, u func(k int) maxplus.T) [][6]maxplus.T {
	out := make([][6]maxplus.T, 0, n)
	prev := [6]maxplus.T{maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon}
	for k := 0; k < n; k++ {
		ti1, tj1, ti2, ti3, tj3, ti4 := zoo.DidacticDurations(seed, k)
		var x [6]maxplus.T
		x[0] = maxplus.Oplus(u(k), prev[3])
		x[1] = maxplus.Oplus(maxplus.Otimes(x[0], ti1), prev[4])
		x[2] = maxplus.Oplus(maxplus.Otimes(x[1], tj1), prev[3])
		x[3] = maxplus.OplusN(maxplus.Otimes(x[2], ti2), maxplus.Otimes(x[1], ti3), prev[4])
		x[4] = maxplus.Oplus(maxplus.Otimes(x[3], tj3), prev[5])
		x[5] = maxplus.Otimes(x[4], ti4)
		out = append(out, x)
		prev = x
	}
	return out
}

func runDidactic(t *testing.T, spec zoo.DidacticSpec) *observe.Trace {
	t.Helper()
	res, err := Run(context.Background(), zoo.Didactic(spec), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Activations == 0 {
		t.Fatal("no activations recorded")
	}
	return res.Trace
}

// The core semantic test: the event-driven executor must reproduce the
// paper's equations (1)-(6) instant for instant, for both a periodic and
// an eager source.
func TestBaselineMatchesPaperEquations(t *testing.T) {
	cases := []struct {
		name   string
		period maxplus.T
	}{
		{"periodic-slow", 2000}, // input-limited
		{"periodic-fast", 300},  // backpressured
		{"eager", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400
			spec := zoo.DidacticSpec{Tokens: n, Period: tc.period, Seed: 7}
			trace := runDidactic(t, spec)
			u := func(k int) maxplus.T { return maxplus.T(int64(k) * int64(tc.period)) }
			want := didacticDirect(n, spec.Seed, u)
			chans := []string{"M1", "M2", "M3", "M4", "M5", "M6"}
			for i, ch := range chans {
				got := trace.Instants(ch)
				if len(got) != n {
					t.Fatalf("%s: %d instants recorded, want %d", ch, len(got), n)
				}
				for k := 0; k < n; k++ {
					if got[k] != want[k][i] {
						t.Fatalf("%s(%d) = %v, want %v (period %d)", ch, k, got[k], want[k][i], tc.period)
					}
				}
			}
		})
	}
}

func TestBaselineActivitiesMatchEquationTimings(t *testing.T) {
	const n = 50
	spec := zoo.DidacticSpec{Tokens: n, Period: 2000, Seed: 3}
	trace := runDidactic(t, spec)
	u := func(k int) maxplus.T { return maxplus.T(int64(k) * 2000) }
	want := didacticDirect(n, spec.Seed, u)

	// Ti1 runs on P1 from xM1(k) for Ti1(k).
	var ti1Acts []observe.Activity
	for _, a := range trace.Activities("P1") {
		if a.Label == "Ti1" {
			ti1Acts = append(ti1Acts, a)
		}
	}
	if len(ti1Acts) != n {
		t.Fatalf("%d Ti1 activities, want %d", len(ti1Acts), n)
	}
	for k, a := range ti1Acts {
		ti1, _, _, _, _, _ := zoo.DidacticDurations(spec.Seed, k)
		if a.Start != want[k][0] {
			t.Fatalf("Ti1(%d) starts at %v, want xM1=%v", k, a.Start, want[k][0])
		}
		if a.End != maxplus.Otimes(want[k][0], ti1) {
			t.Fatalf("Ti1(%d) ends at %v, want %v", k, a.End, maxplus.Otimes(want[k][0], ti1))
		}
		if a.K != k {
			t.Fatalf("Ti1 activity K=%d, want %d", a.K, k)
		}
	}
	// Ti4 runs on P2 from xM5(k).
	var ti4Acts []observe.Activity
	for _, a := range trace.Activities("P2") {
		if a.Label == "Ti4" {
			ti4Acts = append(ti4Acts, a)
		}
	}
	if len(ti4Acts) != n {
		t.Fatalf("%d Ti4 activities, want %d", len(ti4Acts), n)
	}
	for k, a := range ti4Acts {
		if a.Start != want[k][4] {
			t.Fatalf("Ti4(%d) starts at %v, want xM5=%v", k, a.Start, want[k][4])
		}
	}
}

// With unbounded concurrency on P2 but a serialized P1, M1 transfers must
// wait for F2's previous completion — the "limited concurrency" behaviour
// the paper derives equation (1) from.
func TestBaselineProcessorSerialization(t *testing.T) {
	const n = 30
	spec := zoo.DidacticSpec{Tokens: n, Period: 0, Seed: 11} // eager source
	trace := runDidactic(t, spec)
	m1 := trace.Instants("M1")
	m4 := trace.Instants("M4")
	for k := 1; k < n; k++ {
		if m1[k] < m4[k-1] {
			t.Fatalf("M1(%d)=%v before M4(%d)=%v: processor rotation violated", k, m1[k], k-1, m4[k-1])
		}
	}
}

func TestBaselineDeterministic(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 200, Period: 500, Seed: 5}
	t1 := runDidactic(t, spec)
	t2 := runDidactic(t, spec)
	if err := observe.CompareInstants(t1, t2); err != nil {
		t.Fatalf("two identical runs differ: %v", err)
	}
}

func TestBaselineChainRuns(t *testing.T) {
	for _, stages := range []int{2, 3} {
		a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 100, Period: 1500, Seed: 2})
		res, err := Run(context.Background(), a, engine.Options{Record: true})
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		trace := res.Trace
		// The last stage's output must see all tokens.
		lastOut := a.Sinks[0].Ch.Name
		if got := len(trace.Instants(lastOut)); got != 100 {
			t.Fatalf("stages=%d: %d tokens through %s, want 100", stages, got, lastOut)
		}
		// Instants must be strictly ordered per channel.
		for _, label := range trace.Labels() {
			xs := trace.Instants(label)
			for k := 1; k < len(xs); k++ {
				if xs[k] < xs[k-1] {
					t.Fatalf("stages=%d: %s(%d)=%v < %s(%d)=%v", stages, label, k, xs[k], label, k-1, xs[k-1])
				}
			}
		}
		if res.Activations == 0 {
			t.Fatal("no activations")
		}
	}
}

func TestBaselineFIFOVariant(t *testing.T) {
	const n = 120
	spec := zoo.DidacticSpec{Tokens: n, Period: 300, Seed: 9, UseFIFO: true}
	a := zoo.Didactic(spec)
	res, err := Run(context.Background(), a, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace
	// Each channel records both write and read instants.
	for _, ch := range []string{"M1", "M6"} {
		w := trace.Instants(ch + ".w")
		r := trace.Instants(ch + ".r")
		if len(w) != n || len(r) != n {
			t.Fatalf("%s: %d writes, %d reads, want %d", ch, len(w), len(r), n)
		}
		for k := 0; k < n; k++ {
			if r[k] < w[k] {
				t.Fatalf("%s: read(%d)=%v before write=%v", ch, k, r[k], w[k])
			}
		}
		// Backpressure: write k waits for read k-capacity (capacity 2).
		for k := 2; k < n; k++ {
			if w[k] < r[k-2] {
				t.Fatalf("%s: write(%d)=%v violates capacity backpressure (read(%d)=%v)", ch, k, w[k], k-2, r[k-2])
			}
		}
	}
}

func TestBaselinePipelineThroughput(t *testing.T) {
	a := zoo.Pipeline(zoo.PipelineSpec{XSize: 6, Tokens: 80, Period: 0, Seed: 4})
	res, err := Run(context.Background(), a, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace
	if got := len(trace.Instants("C5")); got != 80 {
		t.Fatalf("%d tokens through C5, want 80", got)
	}
}

func TestBaselineTimeLimit(t *testing.T) {
	a := zoo.Didactic(zoo.DidacticSpec{Tokens: 1000, Period: 1000, Seed: 1})
	res, err := Run(context.Background(), a, engine.Options{Record: true, LimitNs: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace
	if res.FinalTimeNs != 50_000 {
		t.Fatalf("final time %d, want 50000", res.FinalTimeNs)
	}
	if n := len(trace.Instants("M1")); n >= 1000 || n == 0 {
		t.Fatalf("M1 transfers = %d, expected partial progress", n)
	}
}

func TestBaselineRejectsInvalidArchitecture(t *testing.T) {
	a := model.NewArchitecture("broken")
	a.AddChannel("M", model.Rendezvous, 0)
	if _, err := Run(context.Background(), a, engine.Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestGateSkipped(t *testing.T) {
	a := zoo.Didactic(zoo.DidacticSpec{Tokens: 1, Period: 0, Seed: 0})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*model.Function{}
	for _, f := range a.Functions {
		byName[f.Name] = f
	}
	// F2 reads M3 which F1 (its rotation predecessor) writes last: the
	// gate is realized by the rendezvous.
	if !GateSkipped(byName["F2"]) {
		t.Fatal("F2's gate should be skipped")
	}
	// F1's gate is F2's previous-iteration end: explicit.
	if GateSkipped(byName["F1"]) {
		t.Fatal("F1's gate should not be skipped")
	}
	// Hardware functions gate on their own previous iteration.
	if GateSkipped(byName["F3"]) || GateSkipped(byName["F4"]) {
		t.Fatal("hardware gates should not be skipped")
	}
}
