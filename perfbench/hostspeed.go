package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is shared: over minutes, its speed
// drifts by ±15% with the load of its neighbours, on every workload at
// once. The end-to-end metrics are therefore host-normalized: a fixed
// CPU loop that uses none of dyncomp's code, the yardstick, is timed
// between the segments of each measured loop, and every time is divided
// (every rate multiplied) by the host factor h = median yardstick time /
// its nominal time. A change to the program cannot move the yardstick,
// so it cannot hide in h; the raw figures and h are printed with every
// run. In 5- and 8-seed trials on a 2-vCPU x86-64 VM this narrowed the
// run-to-run spread of the throughputs from about 16% to 5% on
// engine-mix and from about 11% to 8% on fleet-http.

// yardstickNominalMs is the yardstick's median time on an idle 2-vCPU
// x86-64 VM with Go 1.24; it only sets the scale of the normalized
// figures.
const yardstickNominalMs = 55.0

// segment is how long the loop runs between two yardstick samples.
const segment = 2 * time.Second

var yardSink [2]uint64

// yardstickMs times one yardstick run: on each of two goroutines, a
// max-plus relaxation sweep over a 32 KiB array, 3000 times.
func yardstickMs() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := make([]uint64, 4096)
			x := uint64(g + 1)
			for i := range a {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				a[i] = x & 0xffff
			}
			for r := 0; r < 3000; r++ {
				for i := 1; i < len(a); i++ {
					if v := a[i-1] + (a[i] & 0xff); v > a[i] {
						a[i] = v & 0xfffff
					}
				}
			}
			yardSink[g] = a[len(a)-1]
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t0))
}
