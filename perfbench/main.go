// Command perfbench is dyncomp's benchmark: one command that runs one of
// three closed-loop workloads against the library and its HTTP surfaces,
// checks every output against a reference, and prints the end-to-end
// metrics (plain mode) or the per-layer metrics (traced mode) as one JSON
// line. See README.md in this directory for the workloads, the metric
// table and the metric → layer → workload map.
//
//	bash perfbench/run.sh --workload engine-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// config carries what a workload derives its inputs from.
type config struct {
	seed int64
	tiny bool // smoke-test sizes
}

// round is one repetition of a client's fixed unit of work — a pass over
// the engine-mix inputs, one sweep, one cycle through the run pool, one
// job — and what it completed.
type round struct {
	dur                  time.Duration
	calls, points, iters int64
}

// sample is what one measured closed loop produced.
type sample struct {
	tally
	// rounds holds each client's rounds; throughputs are medians over
	// them, which keeps a short stall of the host out of the figures.
	rounds  [][]round
	wall    time.Duration
	calls   []time.Duration // latency of the caller-visible call
	jobs    []time.Duration // fleet-http: sweep-job latency
	points  int64           // configurations behind points_per_s
	configs int64           // every simulated configuration
	iters   int64           // simulated evolution iterations
	// Derivation-cache requests the loop made (hits rebind a template).
	hits, misses int64
	// Go runtime deltas over the loop.
	mallocs, allocBytes uint64
	gcCycles            uint32
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// run drives the closed loop for about d; tr is nil when untraced.
	run(ctx context.Context, d time.Duration, tr *tracer) (*sample, error)
	close()
}

type workload struct {
	name string
	// tailQ is the latency percentile reported as call_ms_tail: the
	// highest with at least ten samples beyond it in a 20 s run.
	tailQ float64
	// setup builds the inputs from cfg and warms the program; output
	// checks it makes count into t.
	setup func(ctx context.Context, cfg config, t *tally) (instance, error)
}

var workloads = []workload{
	{"engine-mix", 0.90, setupEngineMix},
	{"dse-sweep", 0.90, setupDSESweep},
	{"fleet-http", 0.99, setupFleetHTTP},
}

// setupRuns is how often a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

// endToEnd lists the end-to-end metrics and their units in report order;
// with perLayer it must agree with BENCHMARK.json.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"sim_iters_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"calls_per_s", "1/s"},
	{"call_ms_p50", "ms"},
	{"call_ms_tail", "ms"},
}

// perLayer lists the per-layer metrics and their units in report order.
var perLayer = func() [][2]string {
	var out [][2]string
	add := func(name, unit string) { out = append(out, [2]string{name, unit}) }
	engines := []string{"adaptive", "equivalent", "hybrid", "reference"}
	for _, e := range engines {
		add("sim.activations."+e, "count")
		add("sim.events."+e, "count")
	}
	add("sim.ns_per_activation", "ns")
	for _, e := range engines {
		add("engine."+e+".run_ms_p50", "ms")
		if e == "reference" { // the reference's split is all activations by definition
			continue
		}
		add("engine."+e+".vs_reference", "x")
		for _, part := range []string{"run_ms", "activation_ms", "derive_ms", "other_ms"} {
			add("anomaly."+e+"."+part, "ms")
		}
	}
	add("adaptive.switches", "count")
	add("adaptive.fallbacks", "count")
	add("derive.calls.adaptive", "count")
	add("derive.calls.hybrid", "count")
	add("derive.miss_ms", "ms")
	add("tdg.compiles", "count")
	add("derive.hit_us", "us")
	add("derive.hit_ratio", "ratio")
	add("tdg.step_ns", "ns")
	add("tdg.batch_step_ns_per_lane", "ns")
	add("core.run_ms", "ms")
	add("core.batch_ms_per_lane", "ms")
	add("sweep.dispatch_us_per_point", "us")
	add("sweep.batch_occupancy", "ratio")
	add("archjson.decode_us", "us")
	add("serve.http_overhead_us", "us")
	add("serve.cache_hit_ratio", "ratio")
	add("serve.rejections", "count")
	add("shard.job_overhead_ms", "ms")
	add("shard.chunks_per_job", "count")
	add("shard.chunk_retries", "count")
	add("go.allocs_per_run", "count")
	add("go.alloc_kb_per_point", "KB")
	add("go.gc_cycles", "cycles")
	for _, l := range layers {
		add("self."+l+".share", "ratio")
	}
	add("trace.spans", "count")
	add("trace.overhead.sim_iters_per_s", "1/s")
	add("trace.overhead.calls_per_s", "1/s")
	add("trace.overhead.call_ms_p50", "ms")
	return out
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, runs the benchmark and prints its report;
// it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: engine-mix, dse-sweep or fleet-http")
	seed := fs.Int64("seed", 1, "workload seed; the inputs are derived from it")
	seconds := fs.Float64("seconds", 20, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	spans := fmt.Sprintf(".bench_build/spans/%s-seed%d.ndjson", *name, *seed)
	dur := time.Duration(*seconds * float64(time.Second))
	res, err := bench(context.Background(), *name, config{seed: *seed}, dur, *trace == 1, spans, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (engine-mix, dse-sweep, fleet-http)", name)
}

// measure runs one closed loop and records the Go runtime deltas.
func measure(ctx context.Context, inst instance, d time.Duration, tr *tracer) (*sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := inst.run(ctx, d, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	return s, nil
}

// measureSegments runs the closed loop for d in segments, timing the
// yardstick before, between and after them, and merges the segments.
func measureSegments(ctx context.Context, inst instance, d time.Duration) (*sample, []float64, error) {
	total := &sample{}
	var yard []float64
	for left := d; ; left -= segment {
		yard = append(yard, yardstickMs())
		if left <= 0 {
			return total, yard, nil
		}
		s, err := measure(ctx, inst, min(left, segment), nil)
		if err != nil {
			return nil, nil, err
		}
		total.merge(s)
	}
}

// merge adds o's observations to s.
func (s *sample) merge(o *sample) {
	s.tally.add(o.tally)
	for c, rs := range o.rounds {
		for _, r := range rs {
			s.addRound(c, r)
		}
	}
	s.wall += o.wall
	s.calls = append(s.calls, o.calls...)
	s.jobs = append(s.jobs, o.jobs...)
	s.points += o.points
	s.configs += o.configs
	s.iters += o.iters
	s.hits += o.hits
	s.misses += o.misses
	s.mallocs += o.mallocs
	s.allocBytes += o.allocBytes
	s.gcCycles += o.gcCycles
}

// bench sets the workload up setupRuns times, measures the last set-up
// instance and returns the report. Human-readable lines, with sample
// counts, go to log.
func bench(ctx context.Context, name string, cfg config, d time.Duration, traced bool, spansPath string, log io.Writer) (*result, error) {
	w, err := lookup(name)
	if err != nil {
		return nil, err
	}
	var checks tally
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = w.setup(ctx, cfg, &checks)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(log, "%s seed=%d setup_s=%.4f (median of %d set-ups)\n", name, cfg.seed, median(setups), setupRuns)

	metrics := map[string]metric{}
	if !traced {
		s, yard, err := measureSegments(ctx, inst, d)
		if err != nil {
			return nil, err
		}
		checks.add(s.tally)
		raw := endToEndOf(w, s)
		raw["setup_s"] = median(setups)
		h := median(yard) / yardstickNominalMs
		fmt.Fprintf(log, "  host factor h = %.4f (yardstick: median of %d runs %.3f ms, nominal %.1f ms)\n",
			h, len(yard), median(yard), yardstickNominalMs)
		raw["max_rss_mb"] = maxRSSMB()
		for _, nu := range endToEnd {
			v := raw[nu[0]]
			switch nu[1] {
			case "s", "ms":
				v /= h
			case "1/s":
				v *= h
			}
			metrics[nu[0]] = metric{v, nu[1]}
		}
		describe(log, w, s, raw)
	} else {
		// Halve the run: untraced first, then traced; the difference is
		// the tracing overhead.
		plain, err := measure(ctx, inst, d/2, nil)
		if err != nil {
			return nil, err
		}
		checks.add(plain.tally)
		tr := newTracer()
		s, err := measure(ctx, inst, d/2, tr)
		if err != nil {
			return nil, err
		}
		checks.add(s.tally)
		shares := tr.selfShares() // the loop's spans, before the ledger adds its own
		led, lt, err := runLedger(ctx, cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		checks.add(lt)
		e0, e1 := endToEndOf(w, plain), endToEndOf(w, s)
		led["derive.hit_ratio"] = ratio(float64(s.hits), float64(s.hits+s.misses))
		led["go.allocs_per_run"] = ratio(float64(s.mallocs), float64(s.configs))
		led["go.alloc_kb_per_point"] = ratio(float64(s.allocBytes)/1024, float64(s.configs))
		led["go.gc_cycles"] = float64(s.gcCycles)
		for l, v := range shares {
			led["self."+l+".share"] = v
		}
		led["trace.spans"] = float64(tr.count())
		for _, n := range []string{"sim_iters_per_s", "calls_per_s", "call_ms_p50"} {
			led["trace.overhead."+n] = e1[n] - e0[n]
		}
		for _, nu := range perLayer {
			v, ok := led[nu[0]]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", nu[0])
			}
			metrics[nu[0]] = metric{v, nu[1]}
			fmt.Fprintf(log, "  %-34s %14.4f %s\n", nu[0], v, nu[1])
		}
		describe(log, w, s, e1)
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "  %d spans written to %s\n", tr.count(), spansPath)
	}
	for _, n := range checks.notes {
		fmt.Fprintln(log, "  FAILED:", n)
	}
	if checks.attempted == 0 {
		checks.attempted = 1 // the result line reports at least one attempt
	}
	return &result{
		Correct:   checks.failed == 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   metrics,
	}, nil
}

// addRound records a finished round of client c.
func (s *sample) addRound(c int, r round) {
	for len(s.rounds) <= c {
		s.rounds = append(s.rounds, nil)
	}
	s.rounds[c] = append(s.rounds[c], r)
}

// rate sums over the clients the median per-round rate of what f counts.
func (s *sample) rate(f func(round) int64) float64 {
	var total float64
	for _, rs := range s.rounds {
		var rates []float64
		for _, r := range rs {
			rates = append(rates, float64(f(r))/r.dur.Seconds())
		}
		total += median(rates)
	}
	return total
}

// endToEndOf computes the loop's throughput and latency metrics.
func endToEndOf(w workload, s *sample) map[string]float64 {
	calls := millis(s.calls)
	return map[string]float64{
		"sim_iters_per_s": s.rate(func(r round) int64 { return r.iters }),
		"points_per_s":    s.rate(func(r round) int64 { return r.points }),
		"calls_per_s":     s.rate(func(r round) int64 { return r.calls }),
		"call_ms_p50":     quantile(calls, 0.5),
		"call_ms_tail":    quantile(calls, w.tailQ),
	}
}

// describe prints the end-to-end metrics, as measured before host
// normalization, under the names the workload gives them, with their
// sample counts.
func describe(log io.Writer, w workload, s *sample, e2e map[string]float64) {
	names := map[string]map[string]string{
		"engine-mix": {"sim_iters_per_s": "sim_iters_per_s", "points_per_s": "runs_per_s", "calls_per_s": "runs_per_s",
			"call_ms_p50": "run_ms_p50", "call_ms_tail": "run_ms_p90"},
		"dse-sweep": {"sim_iters_per_s": "sim_iters_per_s", "points_per_s": "points_per_s", "calls_per_s": "sweeps_per_s",
			"call_ms_p50": "sweep_ms_p50", "call_ms_tail": "sweep_ms_p90"},
		"fleet-http": {"sim_iters_per_s": "sim_iters_per_s", "points_per_s": "job_points_per_s", "calls_per_s": "http_runs_per_s",
			"call_ms_p50": "http_run_ms_p50", "call_ms_tail": "http_run_ms_p99"},
	}[w.name]
	for _, nu := range endToEnd {
		v, ok := e2e[nu[0]]
		if !ok {
			continue
		}
		alias := names[nu[0]]
		if alias == "" {
			alias = nu[0]
		}
		fmt.Fprintf(log, "  raw %-16s (%s) = %.4f %s\n", nu[0], alias, v, nu[1])
	}
	nRounds := make([]int, len(s.rounds))
	for i, rs := range s.rounds {
		nRounds[i] = len(rs)
	}
	fmt.Fprintf(log, "  samples: %d calls, %d points, %d configurations, rounds per client %v, in %.2fs; failed %d of %d (failed_frac %.4f)\n",
		len(s.calls), s.points, s.configs, nRounds, s.wall.Seconds(), s.failed, s.attempted, ratio(float64(s.failed), float64(s.attempted)))
	if len(s.jobs) > 0 {
		jobs := millis(s.jobs)
		fmt.Fprintf(log, "  job_ms_p50 = %.4f ms, job_ms_p90 = %.4f ms (n=%d jobs)\n", quantile(jobs, 0.5), quantile(jobs, 0.9), len(jobs))
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
