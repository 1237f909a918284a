package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyncomp"
	"dyncomp/internal/serve"
	"dyncomp/internal/shard"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// workerCacheEntries bounds each worker's derivation cache below the
// number of pipeline shapes the run requests rotate through (12), so the
// workers keep deriving small shapes instead of only rebinding.
const workerCacheEntries = 8

// fleet is an in-process shard coordinator over two in-process serve
// workers, all on loopback.
type fleet struct {
	workers  []*serve.Server
	coord    *shard.Coordinator
	servers  []*http.Server
	urls     []string // worker base URLs
	coordURL string
	wg       sync.WaitGroup
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func startFleet() (*fleet, error) {
	f := &fleet{}
	for i := 0; i < 2; i++ {
		w := serve.New(serve.Config{CacheEntries: workerCacheEntries, JobWorkers: 1})
		f.workers = append(f.workers, w)
		url, err := f.listen(w.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, url)
	}
	c, err := shard.New(shard.Config{Workers: f.urls, ChunkPoints: 8, MaxJobs: 32})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = c
	if f.coordURL, err = f.listen(c.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the HTTP servers, the coordinator and the workers, and
// waits until every serving goroutine has returned.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx) // best effort: Close below tears down the rest
		_ = f.servers[i].Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
	f.wg.Wait()
}

// newClient returns an HTTP client with its own connection pool.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
}

// post sends a JSON body and returns the status and response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// scrape sums, over the given /metrics endpoints, every sample of each
// named metric (all label sets).
func scrape(ctx context.Context, c *http.Client, urls []string, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			for _, n := range names {
				rest, ok := strings.CutPrefix(line, n)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
					continue
				}
				f := strings.Fields(line)
				v, err := strconv.ParseFloat(f[len(f)-1], 64)
				if err != nil {
					return nil, fmt.Errorf("metric line %q: %w", line, err)
				}
				out[n] += v
			}
		}
	}
	return out, nil
}

// runReq is one /v1/run request of the pool with the in-process result
// it must reproduce.
type runReq struct {
	body   []byte
	params map[string]int64 // the pipeline's parameters
	inline []byte           // the inline architecture; nil for a scenario run
	want   dyncomp.EngineResult
}

// arch builds the architecture the request describes.
func (rr runReq) arch() (*dyncomp.Architecture, error) {
	if rr.inline != nil {
		return inlineArch(rr.inline)
	}
	return zoo.PipelineFromParams(zoo.ParamMap(rr.params)), nil
}

// jobReq is one sweep job of the pool with the in-process sweep result
// it must reproduce, per grid index.
type jobReq struct {
	req  serve.SweepRequest
	body []byte
	want []pointCounts
}

// runShape is the X size of run request i. Requests go to the workers in
// turn, so each worker sees every other request: a hot shape (X sizes
// 3-6), then a cold one (X sizes 7-14), and so on. A hot shape comes back
// after 7 other shapes and stays in a worker's 8-entry cache; a cold one
// comes back after 11 and has been evicted. About half the runs derive.
func runShape(i int) int64 {
	k := i / 2 // the request's position in its worker's sequence
	if k%2 == 0 {
		return 3 + int64(k/2%4)
	}
	return 7 + int64(k/2%8)
}

// fleetPool derives the request pools from the workload seed: small
// pipeline runs over 12 rotating shapes of 20-80 tokens, every fourth one
// as an inline JSON architecture, and 16-point didactic sweep jobs. Shapes
// and sizes are fixed, so the work does not depend on the seed; the seed
// picks the periods and token streams.
func fleetPool(ctx context.Context, cfg config) ([]runReq, []jobReq, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x666c74))
	nRuns, nJobs, jobTokens := 48, 4, int64(100)
	if cfg.tiny {
		nRuns, nJobs, jobTokens = 8, 2, 20
	}
	runs := make([]runReq, nRuns)
	for i := range runs {
		params := map[string]int64{
			"xsize":  runShape(i),
			"tokens": 20 + 20*int64(i/3%4),
			"period": 500 + rng.Int64N(300),
			"seed":   1 + rng.Int64N(1<<20),
		}
		rr := &runs[i]
		rr.params = params
		req := serve.RunRequest{Engine: "equivalent", Scenario: "pipeline", Params: params}
		if i%4 == 3 {
			spec, err := dyncomp.ExportArchitecture(zoo.PipelineFromParams(zoo.ParamMap(params)))
			if err != nil {
				return nil, nil, err
			}
			if rr.inline, err = dyncomp.MarshalArchitecture(spec); err != nil {
				return nil, nil, err
			}
			req = serve.RunRequest{Engine: "equivalent", Architecture: rr.inline}
		}
		a, err := rr.arch()
		if err != nil {
			return nil, nil, err
		}
		want, err := dyncomp.Run(ctx, "equivalent", a, dyncomp.EngineOptions{})
		if err != nil {
			return nil, nil, err
		}
		rr.want = *want
		if rr.body, err = json.Marshal(req); err != nil {
			return nil, nil, err
		}
	}
	jobs := make([]jobReq, nJobs)
	for i := range jobs {
		seeds := make([]int64, 8)
		for k := range seeds {
			seeds[k] = 1 + rng.Int64N(1<<20)
		}
		req := serve.SweepRequest{
			Engine:   "equivalent",
			Scenario: "didactic",
			Axes:     []serve.Axis{{Name: "stages", Values: []int64{1, 2}}, {Name: "seed", Values: seeds}},
			Params:   map[string]int64{"tokens": jobTokens},
			Options:  serve.SweepOptions{BatchWidth: 8},
		}
		want, err := jobExpectation(ctx, req)
		if err != nil {
			return nil, nil, err
		}
		jobs[i].req, jobs[i].want = req, want
		if jobs[i].body, err = json.Marshal(req); err != nil {
			return nil, nil, err
		}
	}
	return runs, jobs, nil
}

// inlineArch decodes and builds an inline architecture body through the
// public facade.
func inlineArch(raw []byte) (*dyncomp.Architecture, error) {
	spec, err := dyncomp.DecodeArchitecture(raw)
	if err != nil {
		return nil, err
	}
	return dyncomp.BuildArchitecture(spec, nil)
}

// jobPlan compiles a sweep request exactly as the coordinator does.
func jobPlan(req serve.SweepRequest) (*serve.SweepPlan, error) {
	plan, rerr := serve.CompileSweep(req, serve.SweepDefaults{})
	if rerr != nil {
		return nil, rerr
	}
	return plan, nil
}

// jobExpectation evaluates a sweep request in process with
// sweep.RunContext.
func jobExpectation(ctx context.Context, req serve.SweepRequest) ([]pointCounts, error) {
	plan, err := jobPlan(req)
	if err != nil {
		return nil, err
	}
	res, err := sweep.RunContext(ctx, plan.Axes, plan.Gen, plan.Opts)
	if err != nil {
		return nil, err
	}
	want := make([]pointCounts, len(res.Points))
	for i, pr := range res.Points {
		if pr.Err != nil {
			return nil, pr.Err
		}
		want[i] = pointCountsOf(pr.Run)
	}
	return want, nil
}

// doRun posts one run request and checks the result against the
// in-process one. It returns the iterations the run computed.
func doRun(ctx context.Context, tr *tracer, parent ref, c *http.Client, url string, rr runReq) (int64, error) {
	sp := tr.begin(parent, "serve", "POST /v1/run")
	status, raw, err := post(ctx, c, url+"/v1/run", rr.body)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/v1/run answered %d: %s", status, raw)
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, fmt.Errorf("decoding /v1/run response: %w", err)
	}
	r := resp.Result
	got := dyncomp.EngineResult{Activations: r.Activations, Events: r.Events, FinalTimeNs: r.FinalTimeNs,
		Iterations: r.Iterations, GraphNodes: r.GraphNodes}
	want := rr.want
	want.Trace, want.WallNs = nil, 0
	if got != want {
		return 0, fmt.Errorf("/v1/run result %+v, in-process dyncomp.Run %+v", got, want)
	}
	return int64(r.Iterations), nil
}

// doJob submits one sweep job to the coordinator, reads its NDJSON
// result stream to the trailer and checks every point against the
// in-process sweep. It returns the iterations the job's points computed.
func doJob(ctx context.Context, tr *tracer, parent ref, c *http.Client, coordURL string, jr jobReq) (int64, error) {
	sp := tr.begin(parent, "shard", "POST /v1/sweeps")
	status, raw, err := post(ctx, c, coordURL+"/v1/sweeps", jr.body)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if status != http.StatusAccepted {
		return 0, fmt.Errorf("POST /v1/sweeps answered %d: %s", status, raw)
	}
	var job serve.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		return 0, fmt.Errorf("decoding job: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, coordURL+"/v1/sweeps/"+job.ID+"/results", nil)
	if err != nil {
		return 0, err
	}
	// The stream is read as the coordinator produces it, so its span
	// covers the job's evaluation; checking each line is charged to it.
	sp = tr.begin(parent, "shard", "GET /v1/sweeps/{id}/results")
	defer tr.end(sp)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	seen := make([]bool, len(jr.want))
	var iters int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line shard.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return 0, fmt.Errorf("decoding result line: %w", err)
		}
		if line.State != "" {
			if line.State != "done" {
				return 0, fmt.Errorf("job %s ended %q", job.ID, line.State)
			}
			for i, ok := range seen {
				if !ok {
					return 0, fmt.Errorf("job %s: grid point %d missing", job.ID, i)
				}
			}
			return iters, nil
		}
		p := line.Point
		if p == nil || p.Index < 0 || p.Index >= len(jr.want) || seen[p.Index] {
			return 0, fmt.Errorf("job %s: unexpected result line %s", job.ID, sc.Bytes())
		}
		seen[p.Index] = true
		if p.Error != "" || p.Result == nil {
			return 0, fmt.Errorf("job %s: grid point %d failed: %s", job.ID, p.Index, p.Error)
		}
		r := p.Result
		got := pointCounts{r.FinalTimeNs, r.Iterations, r.Activations, r.Events}
		if err := same(fmt.Sprintf("job %s grid point %d vs sweep.RunContext", job.ID, p.Index), got, jr.want[p.Index]); err != nil {
			return 0, err
		}
		iters += int64(r.Iterations)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("result stream ended without a trailer")
}

// fleetHTTP is the fleet-http workload: client 1 posts the run pool to
// the two workers in turn, client 2 submits sweep jobs to the
// coordinator and reads their results, both closed loops.
type fleetHTTP struct {
	fleet *fleet
	runs  []runReq
	jobs  []jobReq
	c1    *http.Client
	c2    *http.Client
}

func setupFleetHTTP(ctx context.Context, cfg config, t *tally) (instance, error) {
	runs, jobs, err := fleetPool(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("building request pools: %w", err)
	}
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	w := &fleetHTTP{fleet: f, runs: runs, jobs: jobs, c1: newClient(), c2: newClient()}
	// Warm-up: one pass over both pools, checked like the measured ones.
	for i, rr := range runs {
		_, err := doRun(ctx, nil, ref{}, w.c1, f.urls[i%2], rr)
		t.op(err)
	}
	for _, jr := range jobs {
		_, err := doJob(ctx, nil, ref{}, w.c2, f.coordURL, jr)
		t.op(err)
	}
	return w, nil
}

func (w *fleetHTTP) run(ctx context.Context, d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	h0, err := scrape(ctx, w.c1, w.fleet.urls, cacheHits, cacheMisses)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var s2 sample
	wg.Add(1)
	go func() { // client 2: sweep jobs through the coordinator
		defer wg.Done()
		for k := 0; time.Now().Before(deadline); k++ {
			jr := w.jobs[k%len(w.jobs)]
			root := tr.begin(ref{}, "check", "fleet-http.job")
			t0 := time.Now()
			iters, err := doJob(ctx, tr, root, w.c2, w.fleet.coordURL, jr)
			lat := time.Since(t0)
			tr.end(root)
			s2.op(err)
			if err == nil {
				n := int64(len(jr.want))
				s2.jobs = append(s2.jobs, lat)
				s2.points += n
				s2.configs += n
				s2.iters += iters
				s2.addRound(0, round{dur: lat, points: n, iters: iters})
			}
		}
	}()
	// Client 1 posts the run pool to the workers in turn; a round is one
	// cycle through the pool.
	cycle := round{}
	t1 := time.Now()
	for next := 0; time.Now().Before(deadline); {
		rr := w.runs[next%len(w.runs)]
		url := w.fleet.urls[next%2]
		next++
		root := tr.begin(ref{}, "check", "fleet-http.run")
		t0 := time.Now()
		iters, err := doRun(ctx, tr, root, w.c1, url, rr)
		lat := time.Since(t0)
		tr.end(root)
		s.op(err)
		if err == nil {
			s.calls = append(s.calls, lat)
			s.configs++
			s.iters += iters
			cycle.calls++
			cycle.iters += iters
		}
		if next%len(w.runs) == 0 {
			cycle.dur = time.Since(t1)
			s.addRound(0, cycle)
			cycle, t1 = round{}, time.Now()
		}
	}
	wg.Wait()
	s.wall = time.Since(start)
	s.tally.add(s2.tally)
	s.rounds = append(s.rounds, s2.rounds...)
	s.jobs = s2.jobs
	s.points = s2.points
	s.configs += s2.configs
	s.iters += s2.iters
	h1, err := scrape(ctx, w.c1, w.fleet.urls, cacheHits, cacheMisses)
	if err != nil {
		return nil, err
	}
	s.hits = int64(h1[cacheHits] - h0[cacheHits])
	s.misses = int64(h1[cacheMisses] - h0[cacheMisses])
	return s, nil
}

func (w *fleetHTTP) close() {
	w.c1.CloseIdleConnections()
	w.c2.CloseIdleConnections()
	w.fleet.close()
}

// Metric names of the serve and shard /metrics endpoints.
const (
	cacheHits    = "dyncomp_serve_derive_cache_hits_total"
	cacheMisses  = "dyncomp_serve_derive_cache_misses_total"
	rejections   = "dyncomp_serve_rejections_total"
	chunks       = "dyncomp_serve_chunks_total"
	chunkRetries = "dyncomp_coord_chunk_retries_total"
)
