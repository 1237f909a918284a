// Quickstart: describe a small multi-core architecture, simulate it with
// the event-driven reference executor and with the equivalent model
// (dynamic computation of evolution instants), verify that both agree
// bit-exact, and report the event saving.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dyncomp"
)

func main() {
	build := func() *dyncomp.Architecture {
		a := dyncomp.NewArchitecture("quickstart")

		// Application: three functions in a diamond — a splitter feeding
		// two parallel workers whose results a merger joins.
		in := a.AddChannel("in", dyncomp.Rendezvous, 0)
		left := a.AddChannel("left", dyncomp.Rendezvous, 0)
		right := a.AddChannel("right", dyncomp.Rendezvous, 0)
		leftOut := a.AddChannel("leftOut", dyncomp.Rendezvous, 0)
		rightOut := a.AddChannel("rightOut", dyncomp.Rendezvous, 0)
		out := a.AddChannel("out", dyncomp.Rendezvous, 0)

		split := a.AddFunction("split",
			dyncomp.Read{Ch: in},
			dyncomp.Exec{Label: "Tsplit", Cost: dyncomp.OpsPerByte(50, 0.5)},
			dyncomp.Write{Ch: left},
			dyncomp.Write{Ch: right},
		)
		workL := a.AddFunction("workL",
			dyncomp.Read{Ch: left},
			dyncomp.Exec{Label: "TworkL", Cost: dyncomp.OpsPerByte(200, 4)},
			dyncomp.Write{Ch: leftOut},
		)
		workR := a.AddFunction("workR",
			dyncomp.Read{Ch: right},
			dyncomp.Exec{Label: "TworkR", Cost: dyncomp.OpsPerByte(300, 2)},
			dyncomp.Write{Ch: rightOut},
		)
		merge := a.AddFunction("merge",
			dyncomp.Read{Ch: leftOut},
			dyncomp.Exec{Label: "TmergeL", Cost: dyncomp.FixedOps(80)},
			dyncomp.Read{Ch: rightOut},
			dyncomp.Exec{Label: "TmergeR", Cost: dyncomp.FixedOps(120)},
			dyncomp.Write{Ch: out},
		)

		// Platform and mapping: splitter and merger share a CPU; the two
		// workers run on dedicated hardware units.
		cpu := a.AddProcessor("CPU", 1e9)
		hw := a.AddHardware("ACC", 2e9)
		a.Map(cpu, split, merge)
		a.Map(hw, workL, workR)

		// Environment: 10000 tokens of varying size, one every 1.5 µs.
		a.AddSource("gen", in, dyncomp.Periodic(1500, 0), func(k int) dyncomp.Token {
			return dyncomp.Token{Size: int64(128 + (k*37)%256)}
		}, 10000)
		a.AddSink("env", out)
		return a
	}

	ctx := context.Background()
	ref, err := dyncomp.Run(ctx, "reference", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		log.Fatal(err)
	}
	eq, err := dyncomp.Run(ctx, "equivalent", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		log.Fatal(err)
	}

	if err := dyncomp.CompareTraces(ref.Trace, eq.Trace); err != nil {
		log.Fatalf("accuracy violated: %v", err)
	}
	fmt.Println("all evolution instants identical between the two models")
	fmt.Printf("reference executor : %7d kernel activations, %8d events\n", ref.Activations, ref.Events)
	fmt.Printf("equivalent model   : %7d kernel activations, %8d events (graph: %d nodes)\n",
		eq.Activations, eq.Events, eq.GraphNodes)
	fmt.Printf("event ratio        : %.2f\n", float64(ref.Activations)/float64(eq.Activations))

	// Resource usage is observed from the computed instants, without the
	// simulator (the paper's observation time).
	end := dyncomp.Time(ref.FinalTimeNs)
	for _, r := range []string{"CPU", "ACC"} {
		fmt.Printf("%-3s utilization: reference %.1f%%, equivalent %.1f%%\n",
			r, 100*ref.Trace.Utilization(r, 0, end), 100*eq.Trace.Utilization(r, 0, end))
	}
}
