package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Stream is a long-lived streaming response. Every write and every
// flush first sets a fresh write deadline, so a consumer that stops
// reading fails the stream within the timeout instead of pinning the
// handler goroutine — and an idle gap before a write (a job that takes
// long to settle after its last point) never eats into that write's
// deadline.
type Stream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration // 0: no deadline
}

// NewStream sends the 200 header with the given content type, plus
// whatever headers the caller already set, and flushes it.
func NewStream(w http.ResponseWriter, contentType string, timeout time.Duration) *Stream {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	s := &Stream{w: w, rc: http.NewResponseController(w), timeout: timeout}
	_ = s.Flush() // a failed flush resurfaces on the first write
	return s
}

// deadline arms the write deadline. Errors are ignored: a writer
// without deadline support (a test recorder) leaves the stream
// unbounded rather than dead.
func (s *Stream) deadline() {
	if s.timeout > 0 {
		_ = s.rc.SetWriteDeadline(time.Now().Add(s.timeout))
	}
}

// Write writes p under a fresh deadline.
func (s *Stream) Write(p []byte) (int, error) {
	s.deadline()
	return s.w.Write(p)
}

// Flush sends buffered bytes to the client under a fresh deadline.
func (s *Stream) Flush() error {
	s.deadline()
	return s.rc.Flush()
}

// event writes one server-sent event and flushes it.
func (s *Stream) event(name string, data any) bool {
	raw, err := json.Marshal(data)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(s, "event: %s\ndata: %s\n\n", name, raw); err != nil {
		return false
	}
	return s.Flush() == nil
}

// ServeEvents serves a job's lifecycle as a server-sent event stream:
// an initial "state" snapshot; a "progress" event with absolute
// done/total counts whenever done rises above the last count sent
// (seeded from that snapshot); a "state" event on every other change of
// the wire state; and a final "state" event when the job settles, then
// EOF. Each emission re-reads a consistent snapshot of the job, so a
// slow consumer skips intermediate counts but never sees them out of
// order and never misses the terminal state. The stream also ends when
// the client goes away or quit closes (server shutdown).
func ServeEvents(w http.ResponseWriter, r *http.Request, timeout time.Duration, quit <-chan struct{}, job Entry) {
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	s := NewStream(w, "text/event-stream", timeout)

	last, changed := job.Observe()
	if !s.event("state", last) {
		return
	}
	for !terminalWire(last.State) {
		select {
		case <-r.Context().Done():
			return
		case <-quit:
			return
		case <-changed:
		}
		var snap Job
		snap, changed = job.Observe()
		final := terminalWire(snap.State)
		if snap.State != last.State && !final && !s.event("state", snap) {
			return
		}
		if snap.Done > last.Done && !s.event("progress", struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		}{snap.Done, snap.Total}) {
			return
		}
		if final && !s.event("state", snap) {
			return
		}
		last = snap
	}
}
