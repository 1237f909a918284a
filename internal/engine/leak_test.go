package engine_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// No engine leaves a goroutine behind: every engine × every scenario,
// run to completion, stopped at the first instant (LimitNs 1) and
// stopped mid-run (half the completed run's final time), returns the
// process to its goroutine baseline within two seconds of each run.
func TestEnginesLeakNoGoroutines(t *testing.T) {
	ctx := context.Background()
	base := runtime.NumGoroutine()
	settle := func(what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines after the run, %d before:\n%s",
					what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, sc := range zoo.Scenarios() {
		for _, name := range engine.Names() {
			eng, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			group := sc.GroupFor(name, testParams)
			if name == "hybrid" && group == nil {
				continue // no canonical group to abstract
			}
			run := func(limitNs int64) *engine.Result {
				what := name + " on " + sc.Name
				r, err := eng.Run(ctx, sc.Build(testParams), engine.Options{AbstractGroup: group, LimitNs: limitNs})
				if err != nil {
					t.Fatalf("%s (LimitNs %d): %v", what, limitNs, err)
				}
				settle(what)
				return r
			}
			full := run(0)
			run(1)
			if mid := full.FinalTimeNs / 2; mid > 1 {
				run(mid)
			}
		}
	}
}
