package jobs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Table owns a set of jobs by id, in creation order, and hands out the
// "job-%06d" id sequence. The zero value is ready to use.
type Table[J Entry] struct {
	mu      sync.Mutex
	byID    map[string]J
	order   []string
	seq     int64
	dropped int // jobs Add evicted since the last Evict
}

func (t *Table[J]) putLocked(id string, j J) {
	if t.byID == nil {
		t.byID = map[string]J{}
	}
	t.byID[id] = j
	t.order = append(t.order, id)
}

// Add registers the job create builds under the next id, then evicts
// the oldest settled jobs beyond maxJobs (0: unbounded), so the count
// bound holds as each job arrives rather than only from the next Evict.
// create runs under the table lock, so a job it refuses (by returning
// an error) is never observable; the refused id is not reused.
func (t *Table[J]) Add(maxJobs int, create func(id string) (J, error)) (J, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	id := fmt.Sprintf("job-%06d", t.seq)
	j, err := create(id)
	if err == nil {
		t.putLocked(id, j)
		t.dropped += t.evictLocked(time.Time{}, 0, maxJobs)
	}
	return j, err
}

// Put registers a job under an existing id — one recovered from a
// store — and moves the sequence past it.
func (t *Table[J]) Put(id string, j J) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > t.seq {
		t.seq = n
	}
	t.putLocked(id, j)
}

// Get returns the job by id.
func (t *Table[J]) Get(id string) (J, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// List returns every job in creation order.
func (t *Table[J]) List() []J {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]J, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.byID[id])
	}
	return out
}

// Len returns the number of jobs in the table.
func (t *Table[J]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// Evict removes settled jobs: first every job past the TTL (measured
// from its finish time), then — still beyond maxJobs — the oldest
// settled jobs until the bound holds. Queued and running jobs are never
// evicted, so a bound smaller than the live set is simply not yet
// enforceable. Zero ttl or maxJobs disables that rule. Returns how many
// jobs were dropped since the previous Evict, by it or by Add, so a
// caller that acts on evictions (the coordinator compacts its store)
// also acts on those made as jobs arrived.
func (t *Table[J]) Evict(now time.Time, ttl time.Duration, maxJobs int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.dropped + t.evictLocked(now, ttl, maxJobs)
	t.dropped = 0
	return n
}

func (t *Table[J]) evictLocked(now time.Time, ttl time.Duration, maxJobs int) int {
	if ttl <= 0 && (maxJobs <= 0 || len(t.order) <= maxJobs) {
		return 0
	}
	drop := map[string]bool{}
	var settled []string // still-kept settled jobs, creation order
	for _, id := range t.order {
		if at, ok := t.byID[id].Settled(); ok {
			if ttl > 0 && now.Sub(at) >= ttl {
				drop[id] = true
			} else {
				settled = append(settled, id)
			}
		}
	}
	if maxJobs > 0 {
		kept := len(t.order) - len(drop)
		for _, id := range settled {
			if kept <= maxJobs {
				break
			}
			drop[id] = true
			kept--
		}
	}
	if len(drop) == 0 {
		return 0
	}
	order := t.order[:0]
	for _, id := range t.order {
		if drop[id] {
			delete(t.byID, id)
			continue
		}
		order = append(order, id)
	}
	t.order = order
	return len(drop)
}

// Janitor starts a goroutine, tracked by wg, that calls evict on every
// tick until ctx is done — if there is anything to evict by: a TTL or a
// job count bound. The tick is a quarter of the TTL clamped to
// [25ms, 1s], or 1s for a count bound alone.
func Janitor(ctx context.Context, wg *sync.WaitGroup, ttl time.Duration, maxJobs int, evict func(now time.Time)) {
	if ttl <= 0 && maxJobs <= 0 {
		return
	}
	interval := min(max(ttl/4, 25*time.Millisecond), time.Second)
	if ttl <= 0 {
		interval = time.Second
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				evict(now)
			}
		}
	}()
}
