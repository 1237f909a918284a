package metrics

import (
	"net/http/httptest"
	"sync"
	"testing"
)

// The exposition groups each family under its HELP and TYPE lines in
// registration order, keeps declared label order, sorts counter series
// by label values and honours each gauge's number format.
func TestExposition(t *testing.T) {
	var r Registry
	reqs := r.CounterVec("req_total", "Requests.", "endpoint", "class")
	r.GaugeFloat("ratio", "A ratio.", "%.4f", func() float64 { return 0.75 })
	r.GaugeVecFunc("state", "Per worker.", []string{"worker"}, func(emit func(int64, ...string)) {
		emit(2, "b")
		emit(0, "a")
	})
	n := r.Counter("n_total", "A count.")
	h := r.Histogram("err", "Errors.", []float64{0.001, 0.1})
	r.CounterVec("empty_total", "No series yet.", "op")

	reqs.Inc("run", "4xx")
	reqs.Inc("run", "2xx")
	reqs.Inc("run", "2xx")
	n.Add(3)
	h.Observe(0.0005)
	h.Observe(0.5)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, nil)
	want := `# HELP req_total Requests.
# TYPE req_total counter
req_total{endpoint="run",class="2xx"} 2
req_total{endpoint="run",class="4xx"} 1
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 0.7500
# HELP state Per worker.
# TYPE state gauge
state{worker="b"} 2
state{worker="a"} 0
# HELP n_total A count.
# TYPE n_total counter
n_total 3
# HELP err Errors.
# TYPE err histogram
err_bucket{le="0.001"} 1
err_bucket{le="0.1"} 1
err_bucket{le="+Inf"} 2
err_sum 0.5005
err_count 2
# HELP empty_total No series yet.
# TYPE empty_total counter
`
	if got := rec.Body.String(); got != want {
		t.Fatalf("exposition\n%s\nwant\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
}

// Counting a request on an existing series allocates nothing, and
// concurrent increments are not lost.
func TestCounterVecInc(t *testing.T) {
	var r Registry
	v := r.CounterVec("req_total", "Requests.", "endpoint", "class")
	v.Inc("sweep_events", "2xx")
	if allocs := testing.AllocsPerRun(100, func() { v.Inc("sweep_events", "2xx") }); allocs != 0 {
		t.Fatalf("Inc on an existing series allocates %v times", allocs)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.Inc("run", "2xx")
			}
		}()
	}
	wg.Wait()
	if n := v.series["run\xff2xx"].n; n != 4000 {
		t.Fatalf("counted %d increments, want 4000", n)
	}
}
