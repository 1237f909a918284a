package shard

// Store compaction tests: evicting settled jobs shrinks the on-disk
// log, a restart over the compacted store replays only the live jobs,
// and the torn-tail recovery contract survives compaction.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func storeSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// MaxJobs eviction drops the oldest settled job, compacts the store
// past it, and a coordinator restarted over the compacted store —
// including a torn tail appended after compaction — replays exactly the
// surviving job with full results.
func TestEvictionCompactsStoreAcrossRestart(t *testing.T) {
	workers := newFleet(t, 2)
	storePath := t.TempDir() + "/jobs.ndjson"
	c1, ts1 := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2, StorePath: storePath, MaxJobs: 1,
	})

	a := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, a.ID)
	b := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, b.ID)

	before := storeSize(t, storePath)
	c1.evictJobs(time.Now())
	if n := c1.jobsEvicted.Load(); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	if n := c1.compactions.Load(); n != 1 {
		t.Fatalf("%d compactions, want 1", n)
	}
	if after := storeSize(t, storePath); after >= before {
		t.Fatalf("store %d bytes after compaction, was %d — nothing reclaimed", after, before)
	}

	// The evicted job is gone from the API; the survivor is intact.
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job answered %d, want 404", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "job_not_found" {
		t.Fatalf("evicted job code %q, want job_not_found", code)
	}
	assertBitIdentical(t, getResult(t, ts1.URL, b.ID), localSweep(t, faultReq))

	// The store still appends after compaction (the fd was swapped): a
	// third job persists and survives too.
	cJob := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, cJob.ID)

	ts1.Close()
	c1.Close()

	// Tear the tail of the compacted store: recovery must still truncate
	// to the last intact record.
	f, err := os.OpenFile(storePath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"state","job":"job-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := New(Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		c2.Close()
	})
	if _, ok := c2.get(a.ID); ok {
		t.Fatalf("evicted job %s resurrected by restart", a.ID)
	}
	assertBitIdentical(t, getResult(t, ts2.URL, b.ID), localSweep(t, faultReq))
	assertBitIdentical(t, getResult(t, ts2.URL, cJob.ID), localSweep(t, faultReq))
}

// MaxJobs holds as jobs are submitted, not only on the janitor's tick:
// submitting MaxJobs+N jobs back to back, each waited to settle, never
// leaves more than MaxJobs in the table, and the next eviction pass
// counts the N submit-time evictions and compacts the store past them.
func TestMaxJobsHeldOnSubmit(t *testing.T) {
	const maxJobs, extra = 2, 4
	workers := newFleet(t, 2)
	storePath := t.TempDir() + "/jobs.ndjson"
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 4, StorePath: storePath, MaxJobs: maxJobs,
	})
	var ids []string
	for i := 0; i < maxJobs+extra; i++ {
		j := submitSweep(t, ts.URL, faultReq)
		waitTerminal(t, ts.URL, j.ID)
		ids = append(ids, j.ID)
		if n := c.jobs.Len(); n > maxJobs {
			t.Fatalf("after submission %d the table holds %d settled jobs, want at most %d", i+1, n, maxJobs)
		}
	}
	for i, id := range ids {
		if _, ok := c.get(id); ok != (i >= extra) {
			t.Errorf("job %s retained = %v, want %v", id, ok, i >= extra)
		}
	}

	c.evictJobs(time.Now())
	if n := c.jobsEvicted.Load(); n != extra {
		t.Fatalf("evicted %d jobs, want %d", n, extra)
	}
	if c.compactions.Load() < 1 {
		t.Fatal("submit-time evictions never compacted the store")
	}
	ts.Close()
	c.Close()
	_, recovered, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != maxJobs {
		t.Fatalf("compacted store replays %d jobs, want %d", len(recovered), maxJobs)
	}
}

// TTL eviction through the janitor: settled jobs age out without any
// explicit call, live jobs stay.
func TestJobTTLEvictsSettledJobs(t *testing.T) {
	workers := newFleet(t, 2)
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2,
		JobTTL: 50 * time.Millisecond,
	})

	job := submitSweep(t, ts.URL, faultReq)
	waitTerminal(t, ts.URL, job.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("settled job never aged out past the TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.jobsEvicted.Load(); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
}
