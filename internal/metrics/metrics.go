// Package metrics is a dependency-free instrumentation kit for bsrngd:
// counters, labeled counters, gauges, gauge callbacks and fixed-bucket
// histograms behind a registry with a Prometheus-compatible text
// exposition. It deliberately implements only what the serving layer
// needs — the point is that the repo's tier-1 gate stays stdlib-only.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative ≤-bound buckets, plus
// a sum and total count — enough to derive rates and quantile bounds.
type Histogram struct {
	bounds []float64 // sorted upper bounds, implicit +Inf last
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// family is a set of child metrics keyed by label values: the one
// implementation behind LabeledCounter and LabeledGauge.
type family[T any] struct {
	labels []string
	mu     sync.Mutex
	kids   map[string]*T
}

// With returns (creating on first use) the child metric for the given
// label values, which must match the declared label names in count and
// order.
func (f *family[T]) With(values ...string) *T {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(f.labels)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.kids[key]
	if m == nil {
		m = new(T)
		f.kids[key] = m
	}
	return m
}

// register adds the family to r under name: one sample line per child,
// in sorted label order, holding the number value reads from it.
func (f *family[T]) register(r *Registry, name, help, typ string, labels []string, value func(*T) any) {
	f.labels, f.kids = labels, map[string]*T{}
	r.register(metric{name, help, typ, func(w io.Writer, n string) {
		f.mu.Lock()
		keys := make([]string, 0, len(f.kids))
		for k := range f.kids {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals := make([]any, len(keys))
		for i, k := range keys {
			vals[i] = value(f.kids[k])
		}
		f.mu.Unlock()
		for i, k := range keys {
			parts := strings.Split(k, "\x00")
			pairs := make([]string, len(parts))
			for j, v := range parts {
				pairs[j] = fmt.Sprintf("%s=%q", f.labels[j], v)
			}
			fmt.Fprintf(w, "%s{%s} %d\n", n, strings.Join(pairs, ","), vals[i])
		}
	}})
}

// LabeledCounter is a family of counters keyed by label values
// (a minimal CounterVec).
type LabeledCounter struct{ family[Counter] }

// LabeledGauge is a family of gauges keyed by label values
// (a minimal GaugeVec).
type LabeledGauge struct{ family[Gauge] }

// metric is one registered exposition entry.
type metric struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

// Registry owns a set of metrics and renders them as text.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	seen    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[m.name] {
		panic("metrics: duplicate metric " + m.name)
	}
	r.seen[m.name] = true
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	}})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(metric{name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	}})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time
// — used to surface engine counters (core.Stream.Stats) without polling.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(metric{name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	}})
}

// NewHistogram registers a histogram with the given upper bounds
// (sorted ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds not sorted: " + name)
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(metric{name, help, "histogram", func(w io.Writer, n string) {
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
	}})
	return h
}

// NewLabeledCounter registers a counter family with the given label
// names.
func (r *Registry) NewLabeledCounter(name, help string, labels ...string) *LabeledCounter {
	lc := &LabeledCounter{}
	lc.register(r, name, help, "counter", labels, func(c *Counter) any { return c.Value() })
	return lc
}

// NewLabeledGauge registers a gauge family with the given label names.
func (r *Registry) NewLabeledGauge(name, help string, labels ...string) *LabeledGauge {
	lg := &LabeledGauge{}
	lg.register(r, name, help, "gauge", labels, func(g *Gauge) any { return g.Value() })
	return lg
}

// WriteText renders every registered metric in registration order using
// the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		m.write(w, m.name)
	}
}

// formatFloat renders floats compactly ("0.005", "1", "2.5e+06").
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
