package adaptive

import "fmt"

// This file is the steady-state detection policy, factored out of the
// run loop. A detector consumes the parameter-signature stream as a
// sequence of boolean transitions — "iteration k's signature equals
// iteration k-1's" — and decides when the evidence justifies switching
// to the abstract engine. Crucially, a detector is a *policy*, never a
// correctness mechanism: the hot switch is exact at any iteration
// boundary (see the package comment), so an eager detector can at worst
// waste a switch on a fallback, and a lazy one can at worst burn kernel
// events. That freedom is what allows the confidence detector to fire
// as early as the evidence allows instead of waiting out a fixed
// window.

// DefaultConfidence is the posterior steadiness threshold of the
// confidence-driven detector selected when Options.WindowK and
// Options.Confidence are both zero.
const DefaultConfidence = 0.9

// minSteadyRun is the minimum run of identical consecutive signatures
// the confidence detector requires before firing, independent of the
// posterior: a switch needs at least the current and the next iteration
// to agree (the same lookahead the fixed window performs), plus one
// more observation so a single coincidence never fires.
const minSteadyRun = 2

// detectorDecay is the confidence detector's forgetting factor: every
// new transition discounts the accumulated change/transition evidence
// by this factor, so the estimated change rate tracks the *current*
// regime with an effective memory of 1/(1-decay) = 5 transitions. An
// undiscounted posterior would never forgive a noisy transient — after
// 50 changes it would demand ~500 clean transitions before firing
// again, strictly worse than the fixed window on any phase-changing
// workload.
const detectorDecay = 0.8

// detector is an online steady-state detector over the boolean
// signature-transition stream.
type detector interface {
	// observe consumes the next transition of the signature stream:
	// whether sig(k) equals sig(k-1).
	observe(equal bool)
	// confirmed reports whether the evidence observed so far justifies
	// switching to the abstract engine at the current position.
	confirmed() bool
	// nextCheck returns how many further transitions the planner
	// consumes before it next asks confirmed(): the spacing of
	// steady-state checks within a detailed phase. Always at least 1.
	nextCheck() int
	// String describes the detector and its parameters for
	// introspection ("fixed:8", "confidence:0.90").
	String() string
}

// fixedWindow is the original detector: fire after Window consecutive
// identical-signature transitions (Window steady iterations confirmed
// plus the one-step lookahead its final transition carries).
type fixedWindow struct {
	w   int
	run int
}

func (d *fixedWindow) observe(equal bool) {
	if equal {
		d.run++
	} else {
		d.run = 0
	}
}

func (d *fixedWindow) confirmed() bool { return d.run >= d.w }

// nextCheck keeps the historical cadence: a check every w iterations
// of a detailed phase, so its switch points land on k0 + j·w.
func (d *fixedWindow) nextCheck() int { return d.w }

func (d *fixedWindow) String() string { return fmt.Sprintf("fixed:%d", d.w) }

// confidence is the confidence-driven detector: it maintains a
// streaming estimate of the signature stream's change rate and fires as
// soon as the posterior probability that the next transition matches
// clears the threshold — as early as the evidence allows on a quiet
// stream, never on a stream that keeps changing.
//
// The change rate q is estimated with a discounted Beta(α, β) posterior
// over the binary change stream: with discounted evidence of t
// transitions, c of them changes, the posterior mean is
// q̂ = (c+α)/(t+α+β), a streaming (exponentially weighted) mean that
// needs no history. The prior is optimistic — its mean α/(α+β) equals
// the change rate the threshold tolerates, 1-Confidence — so a
// steady-from-start stream fires after minSteadyRun transitions instead
// of waiting out a window, while every observed change pushes q̂ up and
// delays the next eligible fire point until enough matching transitions
// have decayed it back under tolerance.
type confidence struct {
	threshold float64 // required posterior match probability
	alpha     float64 // Beta prior pseudo-matches; see beta()
	minRun    int

	transitions float64 // t: discounted transitions observed
	changes     float64 // c: discounted changes observed
	run         int     // current identical-signature run length
}

// newConfidence builds the confidence detector for a threshold
// (0 selects DefaultConfidence; values are clamped below 1 — a
// threshold of 1 is unsatisfiable by a finite stream).
func newConfidence(threshold float64) *confidence {
	if threshold <= 0 {
		threshold = DefaultConfidence
	}
	if threshold >= 1 {
		threshold = 0.999
	}
	return &confidence{threshold: threshold, alpha: 1, minRun: minSteadyRun}
}

// beta is the prior pseudo-changes: chosen so the prior mean change
// rate α/(α+β) equals exactly the tolerated rate 1-threshold.
func (d *confidence) beta() float64 {
	return d.alpha * d.threshold / (1 - d.threshold)
}

func (d *confidence) observe(equal bool) {
	d.transitions = d.transitions*detectorDecay + 1
	d.changes *= detectorDecay
	if equal {
		d.run++
		return
	}
	d.changes++
	d.run = 0
}

// matchProb is the posterior probability that the next transition
// matches: 1 - q̂.
func (d *confidence) matchProb() float64 {
	return 1 - (d.changes+d.alpha)/(d.transitions+d.alpha+d.beta())
}

func (d *confidence) confirmed() bool {
	return d.run >= d.minRun && d.matchProb() >= d.threshold
}

// nextCheck asks after every transition: a planning check costs one
// confirmed() call, so the switch fires at the first transition whose
// evidence allows it.
func (d *confidence) nextCheck() int { return 1 }

func (d *confidence) String() string {
	return fmt.Sprintf("confidence:%.2f", d.threshold)
}

// newDetector resolves the detection policy from the run options:
// an explicit Window keeps the original fixed-window behavior exactly
// (same checks, same switch points); Window == 0 selects the
// confidence-driven detector with the given (or default) threshold.
func newDetector(window int, conf float64) detector {
	if window > 0 {
		return &fixedWindow{w: window}
	}
	return newConfidence(conf)
}
