package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dyncomp/internal/derive"
)

// newTestServer returns a started Server over httptest plus a cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	return decodeBody[ErrorResponse](t, resp).Err.Code
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	h := decodeBody[Health](t, resp)
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
}

func TestIntrospection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	engines := decodeBody[struct {
		Engines []EngineInfo `json:"engines"`
	}](t, resp)
	names := map[string]bool{}
	for _, e := range engines.Engines {
		names[e.Name] = true
	}
	for _, want := range []string{"reference", "equivalent", "hybrid", "adaptive"} {
		if !names[want] {
			t.Errorf("engine %q not served (have %v)", want, engines.Engines)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := decodeBody[struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}](t, resp)
	found := map[string]ScenarioInfo{}
	for _, sc := range scenarios.Scenarios {
		found[sc.Name] = sc
	}
	for _, want := range []string{"didactic", "pipeline", "forkjoin", "lte"} {
		if _, ok := found[want]; !ok {
			t.Errorf("scenario %q not served", want)
		}
	}
	if len(found["didactic"].Params) == 0 {
		t.Error("didactic served without parameter names")
	}
	if !found["didactic"].HybridGroup {
		t.Error("didactic served without canonical hybrid group")
	}
}

// The headline service property: a second structurally identical request
// is a derive-cache hit — the temporal dependency graph is derived once
// per shape for the whole process, across requests.
func TestRunCacheHitAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := RunRequest{
		Engine:   "equivalent",
		Scenario: "didactic",
		Params:   map[string]int64{"tokens": 50},
	}
	resp := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d", resp.StatusCode)
	}
	first := decodeBody[RunResponse](t, resp)
	if first.Cache.Misses != 1 || first.Cache.Hits != 0 {
		t.Fatalf("first run cache = %+v, want 1 miss 0 hits", first.Cache)
	}
	if first.Result.FinalTimeNs == 0 {
		t.Fatal("first run reached no simulated time")
	}

	// Same structure, different parameters: must rebind, not re-derive.
	req.Params = map[string]int64{"tokens": 50, "period": 900}
	resp = postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d", resp.StatusCode)
	}
	second := decodeBody[RunResponse](t, resp)
	if second.Cache.Misses != 1 {
		t.Fatalf("second run re-derived: %+v", second.Cache)
	}
	if second.Cache.Hits != 1 {
		t.Fatalf("second run was no cache hit: %+v", second.Cache)
	}
	if second.Result.FinalTimeNs == first.Result.FinalTimeNs {
		t.Fatal("different period produced identical final time")
	}
}

// Concurrent mixed-engine requests against one server: every engine on
// every call must answer with a bit-exact final time (the engines are
// interchangeable), sharing one derive cache without interference. Run
// under -race in CI.
func TestConcurrentMixedEngineRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	engines := []string{"reference", "equivalent", "hybrid", "adaptive"}
	const perEngine = 4

	// One serial warm-up run to learn the expected final time.
	warm := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Engine: "reference", Scenario: "didactic", Params: map[string]int64{"tokens": 40},
	})
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d", warm.StatusCode)
	}
	want := decodeBody[RunResponse](t, warm).Result.FinalTimeNs

	var wg sync.WaitGroup
	errs := make(chan error, len(engines)*perEngine)
	for _, eng := range engines {
		for i := 0; i < perEngine; i++ {
			wg.Add(1)
			go func(eng string) {
				defer wg.Done()
				b, _ := json.Marshal(RunRequest{
					Engine: eng, Scenario: "didactic", Params: map[string]int64{"tokens": 40},
				})
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", eng, resp.StatusCode)
					return
				}
				var rr RunResponse
				if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
					errs <- err
					return
				}
				if rr.Result.FinalTimeNs != want {
					errs <- fmt.Errorf("%s: final time %d, want %d", eng, rr.Result.FinalTimeNs, want)
				}
			}(eng)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"bad json", `{`, http.StatusBadRequest, CodeBadJSON},
		{"unknown field", `{"scenario":"didactic","bogus":1}`, http.StatusBadRequest, CodeBadJSON},
		{"unknown engine", `{"engine":"warp","scenario":"didactic"}`, http.StatusBadRequest, CodeUnknownEngine},
		{"unknown scenario", `{"scenario":"warp"}`, http.StatusBadRequest, CodeUnknownScenario},
		{"unknown param", `{"scenario":"didactic","params":{"bogus":1}}`, http.StatusBadRequest, CodeUnknownParam},
		{"hybrid without group", `{"engine":"hybrid","scenario":"random"}`, http.StatusBadRequest, CodeMissingGroup},
		{"scenario build failure", `{"scenario":"didactic","params":{"stages":0}}`, http.StatusUnprocessableEntity, CodeRunFailed},
		{"oversized body", `{"scenario":"didactic","params":{"tokens":` +
			strings.Repeat(" ", maxBodyBytes) + `1}}`, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if got := errorCode(t, resp); got != tc.code {
				t.Fatalf("code %q, want %q", got, tc.code)
			}
		})
	}
}

// The metrics endpoint exports the request, run, cache and job series.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Scenario: "didactic", Params: map[string]int64{"tokens": 20},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`dyncomp_serve_requests_total{endpoint="run",class="2xx"} 1`,
		`dyncomp_serve_runs_total{engine="equivalent"} 1`,
		`dyncomp_serve_derive_cache_misses_total 1`,
		"dyncomp_serve_derive_cache_evictions_total 0",
		fmt.Sprintf("dyncomp_serve_derive_cache_entry_limit %d", derive.DefaultEntries),
		"dyncomp_serve_derive_cache_shapes 1",
		`dyncomp_serve_derive_cache_shape_hits{arch="didactic-chain-1",shape="`,
		"dyncomp_serve_tdg_compiles_total",
		"dyncomp_serve_jobs_queued 0",
		"dyncomp_serve_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// A tight cache bound makes the server evict templates and report it.
func TestMetricsCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 1})
	for _, sc := range []string{"didactic", "chain"} {
		resp := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Scenario: sc, Params: map[string]int64{"tokens": 10},
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", sc, resp.StatusCode)
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"dyncomp_serve_derive_cache_evictions_total 1",
		"dyncomp_serve_derive_cache_shapes 1",
		"dyncomp_serve_derive_cache_entry_limit 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
