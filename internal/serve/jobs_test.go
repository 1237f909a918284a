package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitJob polls GET /v1/sweeps/{id} until the state predicate holds.
func waitJob(t *testing.T, base, id string, pred func(JobResult) bool) JobResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		jr := decodeBody[JobResult](t, resp)
		if pred(jr) {
			return jr
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state", id)
	return JobResult{}
}

func terminal(jr JobResult) bool {
	switch jr.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// A full async sweep: submit, observe completion, read per-point results
// and cache statistics.
func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "pipeline",
		Axes: []Axis{
			{Name: "tokens", Values: []int64{20, 40}},
			{Name: "period", Values: []int64{500, 800, 1100}},
		},
		Params:  map[string]int64{"xsize": 5},
		Options: SweepOptions{Workers: 2},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	j := decodeBody[Job](t, resp)
	if j.ID == "" || j.Total != 6 {
		t.Fatalf("created job %+v", j)
	}

	jr := waitJob(t, ts.URL, j.ID, terminal)
	if jr.State != "done" {
		t.Fatalf("job settled as %q (err %q)", jr.State, jr.Error)
	}
	if jr.Done != 6 || jr.Stats == nil || jr.Stats.Points != 6 || jr.Stats.Failed != 0 {
		t.Fatalf("job result %+v / %+v", jr.Job, jr.Stats)
	}
	// One structural shape: xsize is fixed, tokens/period are parameters.
	if jr.Stats.DeriveCalls != 1 || jr.Stats.CacheHits != 5 {
		t.Fatalf("cache stats %+v, want 1 derivation + 5 hits", jr.Stats)
	}
	if len(jr.Points) != 6 {
		t.Fatalf("%d points returned", len(jr.Points))
	}
	for _, p := range jr.Points {
		if p.Error != "" || p.Result == nil || p.Result.FinalTimeNs == 0 {
			t.Fatalf("bad point %+v", p)
		}
		if _, ok := p.Params["period"]; !ok {
			t.Fatalf("point lost its parameters: %+v", p)
		}
	}

	// The job also appears in the listing.
	lresp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Jobs []Job `json:"jobs"`
	}](t, lresp)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("listing %+v", list.Jobs)
	}
}

// Cancelling a running job mid-sweep: the DELETE answers with a
// cancellable state, the job settles as "cancelled", and the partial
// results stay readable. The lte scenario with many symbols is slow
// enough to still be running when the DELETE lands.
func TestSweepJobCancelMidSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Engine:   "reference",
		Scenario: "lte",
		Axes:     []Axis{{Name: "symbols", Values: []int64{3000, 3001, 3002, 3003, 3004, 3005, 3006, 3007}}},
		Options:  SweepOptions{Workers: 1},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	j := decodeBody[Job](t, resp)

	// Wait until it actually runs, then cancel.
	waitJob(t, ts.URL, j.ID, func(jr JobResult) bool { return jr.State != "queued" })
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+j.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	dresp.Body.Close()

	jr := waitJob(t, ts.URL, j.ID, terminal)
	if jr.State != "cancelled" {
		t.Fatalf("job settled as %q, want cancelled", jr.State)
	}
	if jr.Stats == nil || len(jr.Points) != 8 {
		t.Fatalf("cancelled job lost its partial results: %+v", jr.Stats)
	}
	failed := 0
	for _, p := range jr.Points {
		if p.Error != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no point reports the cancellation")
	}

	// A second DELETE conflicts: the job is terminal.
	dreq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+j.ID, nil)
	dresp2, err := http.DefaultClient.Do(dreq2)
	if err != nil {
		t.Fatal(err)
	}
	if dresp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", dresp2.StatusCode)
	}
	if got := errorCode(t, dresp2); got != CodeJobTerminal {
		t.Fatalf("second cancel code %q", got)
	}
}

// Cancelling a queued job settles it immediately — no worker ever runs
// it. A one-worker pool kept busy by a slow job guarantees queueing.
func TestSweepJobCancelWhileQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	slow := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Engine:   "reference",
		Scenario: "lte",
		Axes:     []Axis{{Name: "symbols", Values: []int64{5000, 5001, 5002, 5003}}},
		Options:  SweepOptions{Workers: 1},
	}))
	queued := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "didactic",
		Axes:     []Axis{{Name: "tokens", Values: []int64{10}}},
	}))

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d", dresp.StatusCode)
	}
	got := decodeBody[Job](t, dresp)
	if got.State != "cancelled" {
		t.Fatalf("queued job state %q after cancel", got.State)
	}

	// Unblock the pool; the cancelled job must stay cancelled.
	dreq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+slow.ID, nil)
	if dresp2, err := http.DefaultClient.Do(dreq2); err == nil {
		dresp2.Body.Close()
	}
	time.Sleep(50 * time.Millisecond)
	jr := waitJob(t, ts.URL, queued.ID, terminal)
	if jr.State != "cancelled" {
		t.Fatalf("queued job resurrected as %q", jr.State)
	}
}

// The SSE stream delivers an initial state snapshot, progress events
// with absolute counts, and a terminal state event before EOF. A slow
// blocker job on a one-worker pool keeps the observed job queued until
// the stream is attached, so no event can be missed.
func TestSweepJobSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	blocker := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Engine:   "reference",
		Scenario: "lte",
		Axes:     []Axis{{Name: "symbols", Values: []int64{50000}}},
		Options:  SweepOptions{Workers: 1},
	}))
	j := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "didactic",
		Axes:     []Axis{{Name: "tokens", Values: []int64{10, 20, 30}}},
		Options:  SweepOptions{Workers: 1},
	}))

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// With the stream attached, let the pool reach the observed job.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+blocker.ID, nil)
	if dresp, err := http.DefaultClient.Do(dreq); err == nil {
		dresp.Body.Close()
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var events []string
	var datas []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, name)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			datas = append(datas, data)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 || len(events) != len(datas) {
		t.Fatalf("events %v", events)
	}
	if events[0] != "state" {
		t.Fatalf("first event %q, want state snapshot", events[0])
	}
	if last := events[len(events)-1]; last != "state" {
		t.Fatalf("last event %q, want terminal state", last)
	}
	var fin Job
	if err := json.Unmarshal([]byte(datas[len(datas)-1]), &fin); err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.Done != 3 {
		t.Fatalf("terminal event %+v", fin)
	}
	sawProgress := false
	for i, name := range events {
		if name != "progress" {
			continue
		}
		sawProgress = true
		var p progressData
		if err := json.Unmarshal([]byte(datas[i]), &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != 3 || p.Done < 1 || p.Done > 3 {
			t.Fatalf("progress event %+v", p)
		}
	}
	if !sawProgress {
		t.Fatalf("no progress event in %v", events)
	}
}

// Submitting more jobs than the queue holds answers 429.
func TestSweepQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, JobQueue: 1})
	mk := func() *http.Response {
		return postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
			Engine:   "reference",
			Scenario: "lte",
			Axes:     []Axis{{Name: "symbols", Values: []int64{4000, 4001}}},
			Options:  SweepOptions{Workers: 1},
		})
	}
	var ids []string
	full := false
	for i := 0; i < 8 && !full; i++ {
		resp := mk()
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, decodeBody[Job](t, resp).ID)
		case http.StatusTooManyRequests:
			if got := errorCode(t, resp); got != CodeQueueFull {
				t.Fatalf("code %q", got)
			}
			full = true
		default:
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if !full {
		t.Fatal("queue never filled")
	}
	for _, id := range ids {
		dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
		if dresp, err := http.DefaultClient.Do(dreq); err == nil {
			dresp.Body.Close()
		}
	}
}

// Grid- and axes-level validation on job submission.
func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxGridPoints: 10})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"no axes", `{"scenario":"didactic"}`, http.StatusBadRequest, CodeInvalidAxes},
		{"empty axis", `{"scenario":"didactic","axes":[{"name":"tokens","values":[]}]}`, http.StatusBadRequest, CodeInvalidAxes},
		{"unknown axis param", `{"scenario":"didactic","axes":[{"name":"bogus","values":[1]}]}`, http.StatusBadRequest, CodeInvalidAxes},
		{"duplicate axis", `{"scenario":"didactic","axes":[{"name":"tokens","values":[1]},{"name":"tokens","values":[2]}]}`, http.StatusBadRequest, CodeInvalidAxes},
		{"grid too large", `{"scenario":"didactic","axes":[{"name":"tokens","values":[1,2,3,4]},{"name":"period","values":[1,2,3]}]}`, http.StatusBadRequest, CodeGridTooLarge},
		{"hybrid without group", `{"engine":"hybrid","scenario":"random","axes":[{"name":"seed","values":[1,2]}]}`, http.StatusBadRequest, CodeMissingGroup},
		{"inline hybrid without group", `{"engine":"hybrid","architecture":` + inlineSpec + `,"axes":[{"name":"period","values":[500,600]}]}`, http.StatusBadRequest, CodeMissingGroup},
		{"unknown job", "", http.StatusNotFound, CodeJobNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.name == "unknown job" {
				resp, err = http.Get(ts.URL + "/v1/sweeps/job-999999")
			} else {
				resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
			}
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

// Closing the server cancels running jobs AND settles still-queued
// jobs; both end as cancelled with their SSE streams terminated.
func TestServerCloseCancelsRunningAndQueuedJobs(t *testing.T) {
	s := New(Config{JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	running := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Engine:   "reference",
		Scenario: "lte",
		Axes:     []Axis{{Name: "symbols", Values: []int64{6000, 6001, 6002, 6003}}},
		Options:  SweepOptions{Workers: 1},
	}))
	queued := decodeBody[Job](t, postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "didactic",
		Axes:     []Axis{{Name: "tokens", Values: []int64{10}}},
	}))
	waitJob(t, ts.URL, running.ID, func(jr JobResult) bool { return jr.State == "running" })
	s.Close() // blocks until the worker settled the running job
	for _, id := range []string{running.ID, queued.ID} {
		jr := waitJob(t, ts.URL, id, terminal)
		if jr.State != "cancelled" {
			t.Fatalf("job %s settled as %q after Close, want cancelled", id, jr.State)
		}
	}

	// A submission after Close must be rejected, not queued forever.
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "didactic",
		Axes:     []Axis{{Name: "tokens", Values: []int64{10}}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close submission: status %d, want 503", resp.StatusCode)
	}
	if got := errorCode(t, resp); got != CodeUnavailable {
		t.Fatalf("post-Close submission code %q", got)
	}
}
