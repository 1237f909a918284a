package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The layers the workload loops charge spans to: the packages the
// benchmark calls into from outside, plus the benchmark's own input
// generation (zoo) and output checking (check). Self-time shares are
// reported for every one of them on every workload, so the metric set
// does not depend on the workload. The ledger's probes charge their
// spans to the layer they probe; those spans go to the span file only.
var layers = []string{"zoo", "dyncomp", "sweep", "serve", "shard", "check"}

// span is one timed call into a layer. Spans of one request share Req,
// the ID of the request's root span; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and returns the zero ref.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ref names an open span; the zero ref is "no span".
type ref struct{ id, req int64 }

// begin opens a span under parent (the zero ref opens a root).
func (t *tracer) begin(parent ref, layer, name string) ref {
	if t == nil {
		return ref{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	req := parent.req
	if parent.id == 0 {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Layer: layer,
		Start: time.Since(t.t0).Nanoseconds()})
	return ref{id: id, req: req}
}

// end closes a span opened by begin.
func (t *tracer) end(r ref) {
	if t == nil || r.id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[r.id-1].End = now
	t.mu.Unlock()
}

// count returns how many spans exist so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfShares returns each layer's self time — span duration minus the
// part its child spans cover — as a share of the total self time of the
// spans recorded so far. Children run synchronously inside their parent,
// so their durations do not overlap and subtract directly.
func (t *tracer) selfShares() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range t.spans {
		v := float64(self[s.ID])
		byLayer[s.Layer] += v
		total += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = byLayer[l] / total
		} else {
			out[l] = 0
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
