package lte

import (
	"context"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
)

func TestReceiverValidates(t *testing.T) {
	a := Receiver(Spec{Symbols: 14, Seed: 1})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Functions) != 8 {
		t.Fatalf("%d functions, want 8", len(a.Functions))
	}
	if len(a.Resources) != 2 {
		t.Fatalf("%d resources", len(a.Resources))
	}
	var dsp, hw int
	for _, r := range a.Resources {
		switch r.Name {
		case "DSP":
			dsp = len(r.Rotation)
		case "HW":
			hw = len(r.Rotation)
		}
	}
	if dsp != 7 || hw != 1 {
		t.Fatalf("rotation sizes: DSP=%d HW=%d", dsp, hw)
	}
}

func TestFrameParamsRanges(t *testing.T) {
	for f := 0; f < 500; f++ {
		nprb, qm, rate := FrameParams(3, f)
		if nprb < 6 || nprb > 100 {
			t.Fatalf("frame %d: nprb=%d", f, nprb)
		}
		if qm != 2 && qm != 4 && qm != 6 {
			t.Fatalf("frame %d: qm=%d", f, qm)
		}
		if rate < 0.33 || rate >= 0.92 {
			t.Fatalf("frame %d: rate=%v", f, rate)
		}
	}
	// Deterministic.
	a1, b1, c1 := FrameParams(3, 7)
	a2, b2, c2 := FrameParams(3, 7)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatal("FrameParams not deterministic")
	}
}

func TestSymbolsShareFrameParams(t *testing.T) {
	t0 := SymbolToken(5, 0)
	t13 := SymbolToken(5, 13)
	t14 := SymbolToken(5, 14)
	if t0.Attr(AttrNPRB) != t13.Attr(AttrNPRB) {
		t.Fatal("symbols 0 and 13 should share a frame")
	}
	// With overwhelming probability the next frame differs in some
	// parameter; check at least one of many frames differs.
	same := t13.Attr(AttrNPRB) == t14.Attr(AttrNPRB) &&
		t13.Attr(AttrQm) == t14.Attr(AttrQm)
	if same {
		t15 := SymbolToken(5, 28)
		if t15.Attr(AttrNPRB) == t0.Attr(AttrNPRB) && t15.Attr(AttrQm) == t0.Attr(AttrQm) {
			t.Skip("improbable: three identical frames")
		}
	}
}

func tokenWith(nprb, qm int, rate float64) model.Token {
	return model.Token{
		Size:  int64(12 * nprb * qm / 8),
		Attrs: []float64{float64(nprb), float64(qm), rate},
	}
}

// The DSP must be able to sustain the heaviest symbol within roughly one
// symbol period (it is not meant to be the bottleneck), while the decoder
// exceeds the period on heavy frames (the Fig. 6 burstiness).
func TestCalibration(t *testing.T) {
	heavy := tokenWith(100, 6, 0.91)
	light := tokenWith(6, 2, 0.34)

	costFns := []model.CostFn{
		opsCPRemoval, opsFFT, opsChannelEstimation, opsEqualization,
		opsTransformDecoder, opsDemapper, opsDescrambling,
	}
	var dspOps float64
	for _, f := range costFns {
		dspOps += f(heavy).Ops
	}
	dspTime := dspOps / DefaultDSPSpeed * 1e9 // ns
	if dspTime > 1.05*float64(SymbolPeriod) {
		t.Fatalf("heaviest DSP symbol takes %.0f ns > symbol period", dspTime)
	}

	decHeavy := opsChannelDecoder(heavy).Ops / DefaultHWSpeed * 1e9
	if decHeavy < float64(SymbolPeriod) {
		t.Fatalf("heavy decode takes %.0f ns; expected beyond the symbol period", decHeavy)
	}
	decLight := opsChannelDecoder(light).Ops / DefaultHWSpeed * 1e9
	if decLight > float64(SymbolPeriod)/2 {
		t.Fatalf("light decode takes %.0f ns; expected well under the period", decLight)
	}
}

// The equivalent model of the LTE receiver must be exact (the Section V
// claim: "the same accuracy is thus obtained as with the initial
// architecture model").
func TestLTEEquivalentModelExact(t *testing.T) {
	a := Receiver(Spec{Symbols: 6 * SymbolsPerFrame, Seed: 9})
	bres, err := baseline.Run(context.Background(), a, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	bt := bres.Trace
	dres, err := derive.Derive(a, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(dres)
	if err != nil {
		t.Fatal(err)
	}
	et := observe.NewTrace("equivalent")
	if _, err := m.Run(core.Options{Trace: et}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(bt, et); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
}

// The derived graph should be close to the paper's reported 11 nodes.
func TestLTEGraphSize(t *testing.T) {
	// Literal derivation keeps every own-previous-end gate of the 7-deep
	// DSP rotation: 9 transfers + u + 7 delayed references.
	dres, err := derive.Derive(Receiver(Spec{Symbols: 14, Seed: 1}), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dres.Graph.NodeCountWithDelays(); got != 17 {
		t.Fatalf("NodeCountWithDelays = %d, want 17", got)
	}
	// Arc reduction prunes the value-redundant pipeline gates down to the
	// two binding ones, close to the paper's hand-minimized 11 nodes.
	rres, err := derive.Derive(Receiver(Spec{Symbols: 14, Seed: 1}), derive.Options{Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rres.Graph.NodeCountWithDelays(); got != 12 {
		t.Fatalf("reduced NodeCountWithDelays = %d, want 12 (paper: 11)", got)
	}
}

// Reduction must not change any instant of the LTE model.
func TestLTEReducedStillExact(t *testing.T) {
	a := Receiver(Spec{Symbols: 3 * SymbolsPerFrame, Seed: 13})
	bres, err := baseline.Run(context.Background(), a, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	bt := bres.Trace
	dres, err := derive.Derive(a, derive.Options{Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(dres)
	if err != nil {
		t.Fatal(err)
	}
	et := observe.NewTrace("equivalent")
	if _, err := m.Run(core.Options{Trace: et}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(bt, et); err != nil {
		t.Fatalf("reduced accuracy violated: %v", err)
	}
}

// The decoder complexity trace must show the hardware near its nominal
// speed while busy (the ~150 GOPS plateaus of Fig. 6c).
func TestLTEComplexityLevels(t *testing.T) {
	a := Receiver(Spec{Symbols: 2 * SymbolsPerFrame, Seed: 4})
	bres, err := baseline.Run(context.Background(), a, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	bt := bres.Trace
	end := bt.EndTime()
	hw, err := bt.ComplexitySeries("HW", 0, end, maxplus.T(1000))
	if err != nil {
		t.Fatal(err)
	}
	if max := hw.Max(); max < 100 || max > 160 {
		t.Fatalf("HW peak complexity %.1f GOPS, want ~150", max)
	}
	dsp, err := bt.ComplexitySeries("DSP", 0, end, maxplus.T(1000))
	if err != nil {
		t.Fatal(err)
	}
	if max := dsp.Max(); max < 5 || max > 9 {
		t.Fatalf("DSP peak complexity %.1f GOPS, want ~8", max)
	}
}
