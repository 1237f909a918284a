// Command ltesim runs the LTE receiver case study (Section V of the
// paper) with any registered engine and prints a usage report: per-frame
// parameters, resource utilization, complexity peaks and the measured
// event saving. "both" runs the reference executor and the equivalent
// model and checks that their evolution instants are identical.
//
//	ltesim -frames 10
//	ltesim -frames 10 -engine reference
//	ltesim -frames 10 -engine both
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/core"
	"dyncomp/internal/engine"
	_ "dyncomp/internal/hybrid"
	"dyncomp/internal/lte"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

func main() {
	frames := flag.Int("frames", 4, "number of 14-symbol frames")
	seed := flag.Int64("seed", 23, "frame parameter seed")
	engName := flag.String("engine", "equivalent", "engine: "+strings.Join(engine.Names(), "|")+"|both")
	flag.Parse()

	names := []string{*engName}
	if *engName == "both" {
		names = []string{"reference", "equivalent"}
	}
	engines := make([]engine.Engine, len(names))
	for i, name := range names {
		e, err := engine.Lookup(name)
		fail(err)
		engines[i] = e
	}
	sc, err := zoo.LookupScenario("lte")
	fail(err)

	symbols := *frames * lte.SymbolsPerFrame
	fmt.Printf("LTE receiver: %d frames (%d symbols), symbol period %d ns\n\n", *frames, symbols, int64(lte.SymbolPeriod))
	fmt.Println("Frame parameters:")
	for f := 0; f < *frames && f < 10; f++ {
		nprb, qm, rate := lte.FrameParams(*seed, f)
		fmt.Printf("  frame %2d: %3d PRB, %d bits/sym, code rate %.2f\n", f, nprb, qm, rate)
	}
	fmt.Println()

	params := zoo.ParamMap{"symbols": int64(symbols), "seed": *seed}
	results := make([]*engine.Result, len(engines))
	for i, e := range engines {
		res, err := e.Run(context.Background(), sc.Build(params), engine.Options{
			Record:        true,
			AbstractGroup: sc.GroupFor(e.Name(), params),
		})
		fail(err)
		report(e.Name(), res.Trace, res.Activations)
		results[i] = res
	}
	if len(results) == 2 {
		ref, eq := results[0], results[1]
		if err := observe.CompareInstants(ref.Trace, eq.Trace); err != nil {
			fmt.Printf("ACCURACY VIOLATION: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("accuracy: all evolution instants identical; event ratio %.2f\n",
			float64(ref.Activations)/float64(eq.Activations))
	}
}

func report(name string, tr *observe.Trace, acts int64) {
	end := tr.EndTime()
	fmt.Printf("%s: %d kernel activations, makespan %d ns\n", name, acts, int64(end))
	for _, r := range []string{"DSP", "HW"} {
		util := tr.Utilization(r, 0, end)
		s, err := tr.ComplexitySeries(r, 0, end, maxplus.T(10_000))
		fail(err)
		fmt.Printf("  %-4s utilization %5.1f%%, peak complexity %6.2f GOPS\n", r, 100*util, s.Max())
	}
	fmt.Println()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
