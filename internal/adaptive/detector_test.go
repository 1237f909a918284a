package adaptive

import (
	"context"
	"math/rand"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// TestFixedWindowDetector pins the historical policy: fire exactly when
// the identical-signature run reaches the window, reset on any change,
// check every window length.
func TestFixedWindowDetector(t *testing.T) {
	d := &fixedWindow{w: 3}
	if d.confirmed() {
		t.Fatal("confirmed before any evidence")
	}
	d.observe(true)
	d.observe(true)
	if d.confirmed() {
		t.Fatal("confirmed one transition early")
	}
	d.observe(true)
	if !d.confirmed() {
		t.Fatal("not confirmed at run == window")
	}
	d.observe(false)
	if d.confirmed() {
		t.Fatal("still confirmed after a change")
	}
	if d.nextCheck() != 3 {
		t.Fatalf("nextCheck %d, want the window", d.nextCheck())
	}
	if d.String() != "fixed:3" {
		t.Fatalf("String %q", d.String())
	}
}

// TestNewDetectorPolicy resolves the two policies exactly as the run
// options document: an explicit window wins, zero selects the
// confidence detector with the given (or default) threshold.
func TestNewDetectorPolicy(t *testing.T) {
	for _, tc := range []struct {
		window int
		conf   float64
		want   string
	}{
		{8, 0, "fixed:8"},
		{8, 0.99, "fixed:8"}, // explicit window wins over a threshold
		{0, 0, "confidence:0.90"},
		{0, 0.99, "confidence:0.99"},
		{0, 1.5, "confidence:1.00"}, // clamped below 1, printed rounded
	} {
		if got := newDetector(tc.window, tc.conf).String(); got != tc.want {
			t.Errorf("newDetector(%d, %g) = %q, want %q", tc.window, tc.conf, got, tc.want)
		}
	}
}

// streamRuns feeds the detector a stream that opens with a change and
// then alternates match-runs of the given lengths separated by single
// changes, returning true if the detector ever confirms.
func streamRuns(d detector, runs []int) bool {
	d.observe(false)
	if d.confirmed() {
		return true
	}
	for _, r := range runs {
		for i := 0; i < r; i++ {
			d.observe(true)
			if d.confirmed() {
				return true
			}
		}
		d.observe(false)
		if d.confirmed() {
			return true
		}
	}
	return false
}

// TestConfidenceNeverFiresOnShortRuns is the safety half of the policy
// contract: on every stream the fixed window rejects because no steady
// spell ever exceeds three iterations, the confidence detector must not
// fire either — eagerness may not turn turbulence into a switch. The
// streams enumerate every pattern of six match-runs with lengths 0..3
// after an initial change (the optimistic prior is only for
// steady-from-start streams, so the evidence starts with one change
// like any post-transient stream does).
func TestConfidenceNeverFiresOnShortRuns(t *testing.T) {
	const maxRun, depth = 3, 6
	runs := make([]int, depth)
	var walk func(i int)
	walk = func(i int) {
		if i == depth {
			if streamRuns(newConfidence(0), runs) {
				t.Fatalf("confidence fired on run pattern %v", runs)
			}
			if streamRuns(&fixedWindow{w: DefaultWindow}, runs) {
				t.Fatalf("fixed window fired on run pattern %v", runs)
			}
			return
		}
		for r := 0; r <= maxRun; r++ {
			runs[i] = r
			walk(i + 1)
		}
	}
	walk(0)
}

// TestConfidenceNeverFiresOnVolatileStream drives the detector with a
// long seeded stream of random steady runs, none longer than three
// transitions (an unbounded random stream is no counterexample: a lucky
// run of eight matches is steadiness the fixed window would also
// accept). It must never confirm.
func TestConfidenceNeverFiresOnVolatileStream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := newConfidence(0)
	d.observe(false) // volatile from the first transition
	for i := 0; i < 2500; i++ {
		for r := rng.Intn(4); r > 0; r-- {
			d.observe(true)
			if d.confirmed() {
				t.Fatalf("confirmed inside bounded run %d", i)
			}
		}
		d.observe(false)
		if d.confirmed() {
			t.Fatalf("confirmed on the change closing run %d", i)
		}
	}
}

// TestConfidenceFiresOnSteadyStream is the eagerness half: a stream
// that is steady from the start confirms after minSteadyRun
// transitions — not after a full fixed window — and a change resets
// the run without erasing the posterior forever.
func TestConfidenceFiresOnSteadyStream(t *testing.T) {
	d := newConfidence(0)
	fired := -1
	for i := 1; i <= DefaultWindow; i++ {
		d.observe(true)
		if d.confirmed() {
			fired = i
			break
		}
	}
	if fired != minSteadyRun {
		t.Fatalf("steady-from-start stream fired at %d, want %d", fired, minSteadyRun)
	}
	d.observe(false)
	if d.confirmed() {
		t.Fatal("confirmed immediately after a change")
	}
	// After turbulence the detector recovers: enough matches re-confirm.
	for i := 0; i < 64 && !d.confirmed(); i++ {
		d.observe(true)
	}
	if !d.confirmed() {
		t.Fatal("never re-confirmed on a quiet stream after one change")
	}
}

// TestConfidenceSwitchesEarlierOnPhased compares the two policies on
// the phase-changing scenario end to end: the confidence detector must
// reach its first detailed→abstract switch with fewer kernel events
// than the fixed window — that is the reduction the policy buys — while
// both remain bit-exact against the reference executor at equal switch
// counts.
func TestConfidenceSwitchesEarlierOnPhased(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 600, Period: 1100, Seed: 7})
	}
	want, _ := refTrace(t, build)

	eventsToSwitch := func(res *engine.Result) (int64, bool) {
		var events int64
		for _, ph := range res.Phases {
			if ph.Mode == engine.ModeAbstract {
				return events, true
			}
			events += ph.Events
		}
		return events, false
	}
	run := func(opts engine.Options) (string, int64) {
		detector := newDetector(opts.WindowK, opts.Confidence).String()
		opts.Record = true
		res, err := Run(context.Background(), build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := observe.CompareInstants(want, res.Trace); err != nil {
			t.Fatalf("%s: trace differs from reference: %v", detector, err)
		}
		events, switched := eventsToSwitch(res)
		if !switched {
			t.Fatalf("%s: never switched on the phased workload", detector)
		}
		return detector, events
	}
	fixed, fixedEvents := run(engine.Options{WindowK: DefaultWindow})
	conf, confEvents := run(engine.Options{})
	if confEvents >= fixedEvents {
		t.Fatalf("confidence paid %d kernel events to its first switch, fixed window %d — no reduction",
			confEvents, fixedEvents)
	}
	t.Logf("events to first switch: %s %d vs %s %d (%.0f%% saved)",
		conf, confEvents, fixed, fixedEvents,
		100*(1-float64(confEvents)/float64(fixedEvents)))
}
