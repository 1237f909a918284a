package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testJob is a minimal job kind: the lifecycle alone.
type testJob struct{ Lifecycle }

func (j *testJob) advance(done int) {
	j.Lock()
	defer j.Unlock()
	j.Info.Done = done
	j.NotifyLocked()
}

// The one cancel rule: a queued job settles as cancelled at once (and
// never starts), a running one shows "cancelling" with its context
// cancelled until its runner settles it, a settled one refuses.
func TestRequestCancel(t *testing.T) {
	var settled []State
	queued := &testJob{}
	queued.OnSettle = func(st State, _ error) { settled = append(settled, st) }
	if st, ok := queued.RequestCancel(time.Now()); !ok || st != "cancelled" {
		t.Fatalf("queued cancel: %q %v", st, ok)
	}
	if queued.Start(func() {}, time.Now()) {
		t.Fatal("a job cancelled while queued started")
	}

	running := &testJob{}
	running.OnSettle = func(st State, _ error) { settled = append(settled, st) }
	ctx, cancel := context.WithCancel(context.Background())
	if !running.Start(cancel, time.Now()) {
		t.Fatal("queued job did not start")
	}
	if st, ok := running.RequestCancel(time.Now()); !ok || st != "cancelling" {
		t.Fatalf("running cancel: %q %v", st, ok)
	}
	if ctx.Err() == nil || !running.CancelRequested() {
		t.Fatal("running cancel did not reach the job's context")
	}
	if !running.Settle(Cancelled, ctx.Err(), time.Now()) || running.Settle(Done, nil, time.Now()) {
		t.Fatal("Settle is not once-only")
	}
	if st, ok := running.RequestCancel(time.Now()); ok || st != "cancelled" {
		t.Fatalf("settled cancel: %q %v", st, ok)
	}
	if len(settled) != 2 || settled[0] != Cancelled || settled[1] != Cancelled {
		t.Fatalf("OnSettle saw %v, want one cancelled per job", settled)
	}
	snap := running.Snapshot()
	if snap.State != "cancelled" || snap.Error != "context canceled" || snap.Started == nil || snap.Finished == nil {
		t.Fatalf("snapshot %+v", snap)
	}
}

// Eviction drops settled jobs past the TTL, then the oldest settled
// ones beyond the bound, never live ones; ids keep counting past
// recovered ones.
func TestTableEvict(t *testing.T) {
	var tab Table[*testJob]
	now := time.Now()
	add := func(settledAgo time.Duration) (id string) {
		j, _ := tab.Add(0, func(next string) (*testJob, error) { id = next; return &testJob{}, nil })
		if settledAgo >= 0 {
			j.Settle(Done, nil, now.Add(-settledAgo))
		}
		return id
	}
	old := add(time.Hour)
	add(-1) // live
	mid := add(time.Minute)
	recent := add(time.Second)
	if n := tab.Evict(now, 30*time.Minute, 2); n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	for id, want := range map[string]bool{old: false, mid: false, recent: true} {
		if _, ok := tab.Get(id); ok != want {
			t.Errorf("job %s kept = %v, want %v", id, ok, want)
		}
	}

	tab.Put("job-000041", &testJob{})
	j, _ := tab.Add(0, func(id string) (*testJob, error) {
		if id != "job-000042" {
			t.Errorf("next id %s, want job-000042", id)
		}
		return &testJob{}, nil
	})
	if j == nil || tab.Len() != 4 {
		t.Fatalf("table holds %d jobs, want 4", tab.Len())
	}
}

// Add enforces the count bound as each job arrives: the oldest settled
// jobs go at once, live ones never do, and the next Evict reports the
// jobs Add dropped together with its own.
func TestTableAddEnforcesMaxJobs(t *testing.T) {
	var tab Table[*testJob]
	now := time.Now()
	var ids []string
	add := func() *testJob {
		j, _ := tab.Add(2, func(id string) (*testJob, error) {
			ids = append(ids, id)
			j := &testJob{}
			j.Info.ID = id
			return j, nil
		})
		return j
	}
	kept := func(want ...string) {
		t.Helper()
		var got []string
		for _, j := range tab.List() {
			got = append(got, j.Info.ID)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("table holds %v, want %v", got, want)
		}
	}

	add().Settle(Done, nil, now)
	add().Settle(Done, nil, now)
	j2 := add() // live: the oldest settled job makes room
	kept(ids[1], ids[2])
	j3 := add()
	kept(ids[2], ids[3])
	add() // every retained job is live: the bound waits
	kept(ids[2], ids[3], ids[4])

	j2.Settle(Done, nil, now)
	j3.Settle(Failed, nil, now)
	if n := tab.Evict(now, 0, 2); n != 3 {
		t.Fatalf("Evict reported %d drops, want 3 (2 by Add, 1 by itself)", n)
	}
	kept(ids[3], ids[4])
	if n := tab.Evict(now, 0, 2); n != 0 {
		t.Fatalf("a second Evict reported %d drops, want 0", n)
	}
}

// The event stream opens with the snapshot, sends progress only above
// the last count sent (seeded from that snapshot), and ends with the
// terminal state.
func TestServeEvents(t *testing.T) {
	j := &testJob{}
	j.Info = Job{ID: "job-1", Done: 2, Total: 5}
	j.Start(func() {}, time.Now())
	go func() {
		for attached := false; !attached; runtime.Gosched() {
			j.Lock()
			attached = j.changed != nil // the stream took its first snapshot
			j.Unlock()
		}
		j.advance(2) // no progress: not above the seed
		j.advance(4)
		j.Settle(Done, nil, time.Now())
	}()
	rec := httptest.NewRecorder()
	ServeEvents(rec, httptest.NewRequest("GET", "/events", nil), time.Second, nil, &j.Lifecycle)

	var names []string
	var last Job
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			names = append(names, name)
			continue
		}
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if names[len(names)-1] == "progress" {
			var p struct{ Done, Total int }
			if err := json.Unmarshal([]byte(data), &p); err != nil {
				t.Fatal(err)
			}
			if p.Done <= 2 || p.Total != 5 {
				t.Errorf("progress %+v at or below the seeded count 2", p)
			}
		} else if err := json.Unmarshal([]byte(data), &last); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) < 2 || names[0] != "state" || names[len(names)-1] != "state" || last.State != "done" {
		t.Fatalf("events %v ending in %+v", names, last)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
}
