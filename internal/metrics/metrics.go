// Package metrics is the Prometheus text-format registry shared by
// dyncomp-serve and dyncomp-coord. It holds counters, gauges, values
// computed at scrape time and fixed-bucket histograms, and writes each
// family as one contiguous group — HELP, TYPE, then its samples — in
// registration order, with label pairs in the order they were declared.
// It is deliberately not a client library: standard library only, no
// summaries, no exemplars.
package metrics

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is an ordered set of metric families. The zero value is
// ready to use; register every family before serving scrapes.
type Registry struct {
	mu       sync.Mutex
	families []family
}

type family struct {
	name, help, kind string
	samples          func(b *bytes.Buffer)
}

func (r *Registry) add(name, help, kind string, samples func(b *bytes.Buffer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, family{name: name, help: help, kind: kind, samples: samples})
}

// Counter registers an unlabelled counter and returns its cell.
func (r *Registry) Counter(name, help string) *atomic.Int64 {
	v := new(atomic.Int64)
	r.CounterFunc(name, help, v.Load)
	return v
}

// CounterFunc registers an unlabelled counter read at scrape time.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.add(name, help, "counter", func(b *bytes.Buffer) { fmt.Fprintf(b, "%s %d\n", name, f()) })
}

// GaugeFunc registers an unlabelled gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(name, help, "gauge", func(b *bytes.Buffer) { fmt.Fprintf(b, "%s %d\n", name, f()) })
}

// GaugeFloat registers an unlabelled float gauge read at scrape time and
// printed with format (for example "%.3f").
func (r *Registry) GaugeFloat(name, help, format string, f func() float64) {
	r.add(name, help, "gauge", func(b *bytes.Buffer) {
		fmt.Fprintf(b, "%s "+format+"\n", name, f())
	})
}

// GaugeVecFunc registers a labelled gauge family whose samples are
// collected at scrape time: collect calls emit once per sample, with
// the label values in the order of labels. Samples keep emit order.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(emit func(v int64, values ...string))) {
	r.add(name, help, "gauge", func(b *bytes.Buffer) {
		collect(func(v int64, values ...string) {
			fmt.Fprintf(b, "%s{%s} %d\n", name, labelPairs(labels, values), v)
		})
	})
}

// labelPairs renders `k1="v1",k2="v2"` in declared label order.
func labelPairs(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), labels))
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteByte('=')
		sb.WriteString(strconv.Quote(values[i]))
	}
	return sb.String()
}

// CounterVec is a labelled counter family. A series appears on the
// first Inc of its label values.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	series map[string]*vecSeries // by label values joined with 0xff
}

type vecSeries struct {
	pairs string // rendered label pairs
	n     int64
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, series: map[string]*vecSeries{}}
	r.add(name, help, "counter", func(b *bytes.Buffer) {
		v.mu.Lock()
		all := make([]vecSeries, 0, len(v.series))
		for _, s := range v.series {
			all = append(all, *s)
		}
		v.mu.Unlock()
		sort.Slice(all, func(i, j int) bool { return all[i].pairs < all[j].pairs })
		for _, s := range all {
			fmt.Fprintf(b, "%s{%s} %d\n", name, s.pairs, s.n)
		}
	})
	return v
}

// Inc adds one to the series of the given label values, in the order
// the labels were declared. Incrementing an existing series does not
// allocate.
func (v *CounterVec) Inc(values ...string) {
	var buf [64]byte
	key := buf[:0]
	for i, s := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, s...)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[string(key)]
	if !ok {
		s = &vecSeries{pairs: labelPairs(v.labels, values)}
		v.series[string(key)] = s
	}
	s.n++
}

// Histogram is a fixed-bucket histogram.
type Histogram struct {
	bounds []float64 // upper bounds; +Inf is implicit
	mu     sync.Mutex
	counts []int64 // per bucket, last is +Inf
	sum    float64
	n      int64
}

// Histogram registers a histogram over the given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: slices.Clone(bounds), counts: make([]int64, len(bounds)+1)}
	r.add(name, help, "histogram", func(b *bytes.Buffer) {
		h.mu.Lock()
		defer h.mu.Unlock()
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(b, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(b, "%s_count %d\n", name, h.n)
	})
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// ServeHTTP writes every family in the Prometheus text exposition
// format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	families := slices.Clone(r.families)
	r.mu.Unlock()
	var b bytes.Buffer
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.samples(&b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes()) // the status line is out; nothing to recover
}
