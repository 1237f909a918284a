// Package jobs is the asynchronous-job machinery shared by the serving
// layer (internal/serve) and the sweep coordinator (internal/shard):
// the lifecycle every job kind embeds, with its change broadcast; the
// job table with TTL and count eviction plus its janitor; and the
// streaming writers behind the /events and /results endpoints. Each job
// kind keeps only its payload. Standard library only.
package jobs

import (
	"context"
	"sync"
	"time"
)

// State is the lifecycle of a job. Transitions:
//
//	queued ──► running ──► done | failed | cancelled
//	   │                            ▲
//	   └────────────────────────────┘  (cancelled while queued)
//
// A cancel request against a running job shows up as the transient
// wire state "cancelling" until the job's runner settles it.
type State int

const (
	Queued State = iota
	Running
	Done
	Failed
	Cancelled
)

func (st State) String() string {
	switch st {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (st State) Terminal() bool {
	return st == Done || st == Failed || st == Cancelled
}

// terminalWire reports whether a wire state string is final.
func terminalWire(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// Job is the wire form of a job's lifecycle, returned by POST
// /v1/sweeps (202), GET /v1/sweeps and embedded in the job result, on
// dyncomp-serve and dyncomp-coord alike. State is one of "queued",
// "running", "cancelling", "done", "failed", "cancelled"; Done/Total
// report point-level progress.
type Job struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Engine   string     `json:"engine"`
	Scenario string     `json:"scenario"`
	Done     int        `json:"done"`
	Total    int        `json:"total"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// Entry is what the job table, the job handlers and the event stream
// need of a job; every job kind embedding a Lifecycle has it.
type Entry interface {
	Settled() (finished time.Time, ok bool)
	Snapshot() Job
	Observe() (Job, <-chan struct{})
	RequestCancel(now time.Time) (state string, ok bool)
}

// Lifecycle is the mutable lifecycle a job kind embeds: the job's wire
// record plus its state machine. Its mutex also guards the embedding
// job's payload. Every mutation — a transition here, or a change the
// job announces with NotifyLocked — wakes all watchers through one
// close-and-replace broadcast: watchers re-read the state they care
// about under the lock instead of receiving deltas, so the broadcast
// can neither drop a change nor block the writer.
type Lifecycle struct {
	sync.Mutex
	// Info is the job's wire record. The job fills ID, Engine, Scenario,
	// Created and Total before it becomes visible, and advances Done
	// (and Total) under the lock; the lifecycle fields are rendered by
	// Snapshot.
	Info Job
	// OnSettle, when set, observes the terminal state and error exactly
	// once, wherever the job settles, with the lock held: a reader never
	// sees the terminal state before its effects. It must not call back
	// into the job. Set it before the job becomes visible to others.
	OnSettle func(State, error)

	state           State
	cancelRequested bool
	cancel          context.CancelFunc // set while running
	started         time.Time
	finished        time.Time
	err             error
	changed         chan struct{} // created on first watch, closed on change
	rendered        any           // memoized terminal rendering, see Render
}

// StateLocked returns the state. The caller holds the lock.
func (l *Lifecycle) StateLocked() State { return l.state }

// NotifyLocked wakes every watcher. The caller holds the lock.
func (l *Lifecycle) NotifyLocked() {
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
}

// ChangedLocked returns a channel closed on the job's next change. The
// caller holds the lock.
func (l *Lifecycle) ChangedLocked() <-chan struct{} {
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.changed
}

// Start moves a queued job to running with the cancel function of its
// run. It reports false when the job must not run: already started, or
// settled (cancelled while queued).
func (l *Lifecycle) Start(cancel context.CancelFunc, now time.Time) bool {
	l.Lock()
	defer l.Unlock()
	if l.state != Queued {
		return false
	}
	l.state = Running
	l.started = now
	l.cancel = cancel
	l.NotifyLocked()
	return true
}

// Settle moves the job into a terminal state; it reports false, and
// changes nothing, when the job had already settled.
func (l *Lifecycle) Settle(st State, err error, now time.Time) bool {
	l.Lock()
	defer l.Unlock()
	return l.settleLocked(st, err, now)
}

func (l *Lifecycle) settleLocked(st State, err error, now time.Time) bool {
	if l.state.Terminal() {
		return false
	}
	l.state = st
	l.err = err
	l.finished = now
	l.NotifyLocked()
	if l.OnSettle != nil {
		l.OnSettle(st, err)
	}
	return true
}

// RequestCancel asks the job to stop. One rule for every job kind: a
// queued job settles as cancelled at once; a running one has its
// context cancelled and shows "cancelling" until its runner settles it.
// Terminal jobs report ok false with their state.
func (l *Lifecycle) RequestCancel(now time.Time) (state string, ok bool) {
	l.Lock()
	defer l.Unlock()
	switch l.state {
	case Queued:
		l.settleLocked(Cancelled, context.Canceled, now)
		return l.state.String(), true
	case Running:
		l.cancelRequested = true
		if l.cancel != nil {
			l.cancel()
		}
		l.NotifyLocked()
		return l.wireLocked(), true
	}
	return l.state.String(), false
}

// CancelRequested reports whether a cancel reached the job while it ran.
func (l *Lifecycle) CancelRequested() bool {
	l.Lock()
	defer l.Unlock()
	return l.cancelRequested
}

// Settled reports when a terminal job finished (ok false while live).
func (l *Lifecycle) Settled() (finished time.Time, ok bool) {
	l.Lock()
	defer l.Unlock()
	return l.finished, l.state.Terminal()
}

func (l *Lifecycle) wireLocked() string {
	if l.state == Running && l.cancelRequested {
		return "cancelling"
	}
	return l.state.String()
}

// SnapshotLocked renders the wire record with the lifecycle: the wire
// state, the start and finish times, the error. The caller holds the
// lock.
func (l *Lifecycle) SnapshotLocked() Job {
	j := l.Info
	j.State = l.wireLocked()
	if !l.started.IsZero() {
		t := l.started
		j.Started = &t
	}
	if !l.finished.IsZero() {
		t := l.finished
		j.Finished = &t
	}
	if l.err != nil {
		j.Error = l.err.Error()
	}
	return j
}

// Snapshot renders the wire record.
func (l *Lifecycle) Snapshot() Job {
	l.Lock()
	defer l.Unlock()
	return l.SnapshotLocked()
}

// Observe returns the wire record plus a channel closed on the job's
// next change: the input of the event stream.
func (l *Lifecycle) Observe() (Job, <-chan struct{}) {
	l.Lock()
	defer l.Unlock()
	return l.SnapshotLocked(), l.ChangedLocked()
}

// Render returns render's result, computed under the job's lock. A
// terminal job can never change, so its first rendering is memoized:
// polling a finished large grid costs one conversion in total, not one
// per request.
func Render[T any](l *Lifecycle, render func() T) T {
	l.Lock()
	defer l.Unlock()
	if v, ok := l.rendered.(T); ok {
		return v
	}
	v := render()
	if l.state.Terminal() {
		l.rendered = v
	}
	return v
}
