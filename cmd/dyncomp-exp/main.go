// Command dyncomp-exp regenerates the tables and figures of the paper's
// evaluation section:
//
//	dyncomp-exp -exp table1    # Table I: speed-up on Examples 1-4
//	dyncomp-exp -exp fig5      # Fig. 5: speed-up vs graph complexity
//	dyncomp-exp -exp fig6      # Fig. 6: LTE receiver observations
//	dyncomp-exp -exp casestudy # Section V speed-up (20000 symbols)
//	dyncomp-exp -exp accuracy  # bit-exactness check (-engine picks the engine under test)
//	dyncomp-exp -exp adaptive  # all registered engines on the phase-changing workload
//	dyncomp-exp -exp quantum   # loosely-timed trade-off ablation
//	dyncomp-exp -exp all
//
// The -tokens flag scales the workloads (the paper uses 20000; smaller
// values give faster, noisier runs). The -engine flag selects which
// registered engine the accuracy experiment compares against the
// reference executor (the hybrid engine abstracts the didactic {F3, F4}
// group). With -csv DIR the Fig. 6 series are also written as CSV files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dyncomp/internal/engine"
	"dyncomp/internal/exp"
	"dyncomp/internal/model"
	"dyncomp/internal/zoo"
)

func main() {
	const experiments = "table1|fig5|fig6|casestudy|accuracy|adaptive|quantum|all"
	which := flag.String("exp", "all", "experiment: "+experiments)
	engName := flag.String("engine", "equivalent", "engine under test for -exp accuracy: "+strings.Join(engine.Names(), "|"))
	tokens := flag.Int("tokens", 20000, "workload size (tokens/symbols)")
	frames := flag.Int("frames", 2, "LTE frames for fig6")
	csvDir := flag.String("csv", "", "directory for CSV output (fig6)")
	flag.Parse()
	if !slices.Contains(strings.Split(experiments, "|"), *which) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *which, experiments)
		os.Exit(1)
	}

	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("accuracy", func() error {
		sc, err := zoo.LookupScenario("didactic")
		if err != nil {
			return err
		}
		group := sc.GroupFor(*engName, zoo.ParamMap{})
		_, err = exp.AccuracyReport(func() *model.Architecture {
			return zoo.Didactic(zoo.DidacticSpec{Tokens: *tokens, Period: 1200, Seed: 41})
		}, *engName, group, os.Stdout)
		return err
	})
	run("table1", func() error {
		_, err := exp.Table1(*tokens, os.Stdout)
		return err
	})
	run("fig5", func() error {
		_, err := exp.Fig5(*tokens/4, nil, nil, os.Stdout)
		return err
	})
	run("fig6", func() error {
		data, err := exp.Fig6(*frames, os.Stdout)
		if err != nil {
			return err
		}
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		dsp, err := os.Create(filepath.Join(*csvDir, "fig6_dsp.csv"))
		if err != nil {
			return err
		}
		defer dsp.Close()
		if err := data.DSP.WriteCSV(dsp); err != nil {
			return err
		}
		hw, err := os.Create(filepath.Join(*csvDir, "fig6_hw.csv"))
		if err != nil {
			return err
		}
		defer hw.Close()
		return data.HW.WriteCSV(hw)
	})
	run("casestudy", func() error {
		_, err := exp.CaseStudy(*tokens, os.Stdout)
		return err
	})
	run("adaptive", func() error {
		_, err := exp.AdaptiveCompare(*tokens, os.Stdout)
		return err
	})
	run("quantum", func() error {
		_, err := exp.QuantumSweep(*tokens/4, nil, os.Stdout)
		return err
	})
}
