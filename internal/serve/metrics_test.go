package serve

import (
	"io"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Every /metrics family is one contiguous HELP/TYPE/samples group, the
// exposition carries exactly the documented families, and label order
// and number formats stay what dashboards parse.
func TestMetricsFamiliesContiguous(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Scenario: "didactic", Params: map[string]int64{"tokens": 20}}).Body.Close()
	postJSON(t, ts.URL+"/v1/run", RunRequest{Scenario: "no-such-scenario"}).Body.Close()
	j := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "didactic",
		Axes:     []Axis{{Name: "tokens", Values: []int64{10, 20, 30}}},
		Options:  SweepOptions{BatchWidth: 2},
	}))
	waitJob(t, ts.URL, j.ID, terminal)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams := families(t, string(raw))

	var names []string
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{
		"dyncomp_serve_chunk_points_total",
		"dyncomp_serve_chunks_total",
		"dyncomp_serve_derive_cache_entry_limit",
		"dyncomp_serve_derive_cache_evictions_total",
		"dyncomp_serve_derive_cache_hits_total",
		"dyncomp_serve_derive_cache_misses_total",
		"dyncomp_serve_derive_cache_shape_hits",
		"dyncomp_serve_derive_cache_shapes",
		"dyncomp_serve_inflight_requests",
		"dyncomp_serve_jobs_evicted_total",
		"dyncomp_serve_jobs_queued",
		"dyncomp_serve_jobs_running",
		"dyncomp_serve_jobs_total",
		"dyncomp_serve_optimizations_total",
		"dyncomp_serve_panics_total",
		"dyncomp_serve_rejections_total",
		"dyncomp_serve_requests_total",
		"dyncomp_serve_runs_total",
		"dyncomp_serve_sweep_batch_lanes_total",
		"dyncomp_serve_sweep_batch_occupancy",
		"dyncomp_serve_sweep_batch_points_total",
		"dyncomp_serve_sweep_batches_total",
		"dyncomp_serve_sweep_pred_error",
		"dyncomp_serve_sweep_predicted_points_total",
		"dyncomp_serve_sweep_simulated_points_total",
		"dyncomp_serve_tdg_compiles_total",
		"dyncomp_serve_uptime_seconds",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("families\n%v\nwant\n%v", names, want)
	}

	formats := map[string]*regexp.Regexp{
		"dyncomp_serve_requests_total":          regexp.MustCompile(`^dyncomp_serve_requests_total\{endpoint="[a-z_]+",class="[1-5]xx"\} [0-9]+$`),
		"dyncomp_serve_runs_total":              regexp.MustCompile(`^dyncomp_serve_runs_total\{engine="[a-z]+"\} [0-9]+$`),
		"dyncomp_serve_jobs_total":              regexp.MustCompile(`^dyncomp_serve_jobs_total\{state="done"\} 1$`),
		"dyncomp_serve_derive_cache_shape_hits": regexp.MustCompile(`^dyncomp_serve_derive_cache_shape_hits\{arch="[^"]+",shape="[0-9a-f]+"\} [0-9]+$`),
		"dyncomp_serve_sweep_batch_occupancy":   regexp.MustCompile(`^dyncomp_serve_sweep_batch_occupancy [0-9]+\.[0-9]{4}$`),
		"dyncomp_serve_uptime_seconds":          regexp.MustCompile(`^dyncomp_serve_uptime_seconds [0-9]+\.[0-9]{3}$`),
	}
	for name, re := range formats {
		if len(fams[name]) == 0 {
			t.Errorf("%s has no samples", name)
		}
		for _, line := range fams[name] {
			if !re.MatchString(line) {
				t.Errorf("sample %q does not match %s", line, re)
			}
		}
	}
	if got := fams["dyncomp_serve_requests_total"]; !slices.Contains(got, `dyncomp_serve_requests_total{endpoint="run",class="4xx"} 1`) {
		t.Errorf("request series %v lack the failed run", got)
	}
}

// families parses a text exposition into each family's sample lines,
// failing unless every family is one contiguous group: one HELP line,
// then one TYPE line, then only its own samples (a histogram's _bucket,
// _sum and _count included).
func families(t *testing.T, text string) map[string][]string {
	t.Helper()
	samples := map[string][]string{}
	cur, kind := "", ""
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if _, dup := samples[fields[2]]; dup {
				t.Fatalf("line %d: second HELP for %s (family split):\n%s", i+1, fields[2], text)
			}
			samples[fields[2]], cur, kind = nil, fields[2], ""
		case strings.HasPrefix(line, "# TYPE "):
			if fields[2] != cur || kind != "" || len(fields) != 4 {
				t.Fatalf("line %d: %q does not follow its family's HELP line:\n%s", i+1, line, text)
			}
			kind = fields[3]
		default:
			name, _, _ := strings.Cut(fields[0], "{")
			own := name == cur || kind == "histogram" &&
				(name == cur+"_bucket" || name == cur+"_sum" || name == cur+"_count")
			if !own || kind == "" {
				t.Fatalf("line %d: sample %q outside its family's HELP/TYPE group (at %q):\n%s", i+1, line, cur, text)
			}
			samples[cur] = append(samples[cur], line)
		}
	}
	return samples
}
