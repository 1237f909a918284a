package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dyncomp/internal/serve"
)

// waitDone polls the job until it has merged at least n points.
func waitDone(t *testing.T, coordURL, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for getResult(t, coordURL, id).Done < n {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %d merged points", id, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A job that settles long after its last arrival still ends its NDJSON
// stream with the trailer: the trailer write gets a fresh deadline
// instead of inheriting the expired one of the last point batch.
func TestResultsTrailerAfterIdleGap(t *testing.T) {
	workers := newFleet(t, 2)
	gate := &gateTransport{inner: &httpTransport{client: &http.Client{}}, limit: 2}
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: gate,
		StreamWriteTimeout: 100 * time.Millisecond})

	job := submitSweep(t, ts.URL, faultReq)
	waitDone(t, ts.URL, job.ID, 4) // the two chunks the gate lets through
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for i := 0; i < 4; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d points: %v", i, sc.Err())
		}
	}

	time.Sleep(400 * time.Millisecond) // idle well past the write timeout
	cancelJob(t, ts.URL, job.ID)
	if !sc.Scan() {
		t.Fatalf("stream ended without a trailer: %v", sc.Err())
	}
	var line ResultLine
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.State != "cancelled" || line.Stats == nil {
		t.Fatalf("last line %s, want the cancelled trailer", sc.Bytes())
	}
}

// heldTransport holds every dispatch until release closes.
type heldTransport struct {
	inner   Transport
	release chan struct{}
}

func (h *heldTransport) RunChunk(ctx context.Context, workerURL string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	select {
	case <-h.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.inner.RunChunk(ctx, workerURL, req)
}

// syncBuffer is a bytes.Buffer safe for a logger and a reader.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// A store that fails under a running job does not stop the job, but
// every failed write is logged with the job and the operation, and
// counted on /metrics.
func TestStoreErrorsCounted(t *testing.T) {
	workers := newFleet(t, 2)
	held := &heldTransport{inner: &httpTransport{client: &http.Client{}}, release: make(chan struct{})}
	var logs syncBuffer
	c, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: held,
		StorePath: t.TempDir() + "/jobs.ndjson",
		Logger:    slog.New(slog.NewTextHandler(&logs, nil))})

	job := submitSweep(t, ts.URL, faultReq)
	deadline := time.Now().Add(30 * time.Second)
	for getResult(t, ts.URL, job.ID).State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.store.Close(); err != nil {
		t.Fatal(err)
	}
	close(held.release)
	if res := waitTerminal(t, ts.URL, job.ID); res.State != "done" || res.Done != res.Total {
		t.Fatalf("job settled %q with %d/%d points", res.State, res.Done, res.Total)
	}

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`dyncomp_coord_store_errors_total{op="append_chunk"} 6`,
		`dyncomp_coord_store_errors_total{op="append_state"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	for _, op := range []string{"append_chunk", "append_state"} {
		want := `level=ERROR msg="store operation failed" op=` + op + " job=" + job.ID
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
}

// Every coordinator /metrics family is one contiguous HELP/TYPE/samples
// group with integer samples, and the exposition carries exactly the
// documented families.
func TestCoordMetricsFamiliesContiguous(t *testing.T) {
	workers := newFleet(t, 2)
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2})
	waitTerminal(t, ts.URL, submitSweep(t, ts.URL, faultReq).ID)

	fams := families(t, scrape(t, ts.URL))
	var names []string
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{
		"dyncomp_coord_breaker_closed_total",
		"dyncomp_coord_breaker_opened_total",
		"dyncomp_coord_breaker_state",
		"dyncomp_coord_chunk_retries_total",
		"dyncomp_coord_jobs",
		"dyncomp_coord_jobs_evicted_total",
		"dyncomp_coord_panics_total",
		"dyncomp_coord_store_compactions_total",
		"dyncomp_coord_store_errors_total",
		"dyncomp_coord_workers",
		"dyncomp_coord_workers_alive",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("families\n%v\nwant\n%v", names, want)
	}
	sample := regexp.MustCompile(`^dyncomp_coord_[a-z_]+(\{worker="http://[^"]+"\})? [0-9]+$`)
	for _, lines := range fams {
		for _, line := range lines {
			if !sample.MatchString(line) {
				t.Errorf("sample %q has an unexpected label set or number format", line)
			}
		}
	}
	if n := len(fams["dyncomp_coord_breaker_state"]); n != 2 {
		t.Errorf("%d breaker_state samples, want one per worker", n)
	}
}

// openStream GETs a streaming endpoint. Streams flush their header
// first, so the handler is attached when this returns.
func openStream(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s answered %d", url, resp.StatusCode)
	}
	return resp
}

// Shutting down a worker with an SSE stream on its running job, and a
// coordinator with SSE and NDJSON streams on its running job, ends
// every stream and leaves no goroutine behind.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	client := &http.Client{Transport: &http.Transport{}}

	s := serve.New(serve.Config{JobWorkers: 1})
	sts := httptest.NewServer(s.Handler())
	c, err := New(Config{Workers: []string{sts.URL}, ChunkPoints: 2,
		Transport: &gateTransport{inner: &httpTransport{client: client}, limit: 0}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(c.Handler())

	local := decodeBody[serve.Job](t, postJSON(t, sts.URL+"/v1/sweeps", serve.SweepRequest{
		Engine:   "reference",
		Scenario: "lte",
		Axes:     []serve.Axis{{Name: "symbols", Values: []int64{6000, 6001, 6002, 6003}}},
		Options:  serve.SweepOptions{Workers: 1},
	}))
	fleet := submitSweep(t, cts.URL, faultReq)
	streams := []*http.Response{
		openStream(t, client, sts.URL+"/v1/sweeps/"+local.ID+"/events"),
		openStream(t, client, cts.URL+"/v1/sweeps/"+fleet.ID+"/events"),
		openStream(t, client, cts.URL+"/v1/sweeps/"+fleet.ID+"/results"),
	}

	c.Close()
	cts.Close()
	s.Close()
	sts.Close()
	for _, resp := range streams {
		_, _ = io.Copy(io.Discard, resp.Body) // EOF once the server let go
		resp.Body.Close()
	}
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
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
