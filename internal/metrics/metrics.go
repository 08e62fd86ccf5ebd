// Package metrics holds the daemon's counters, gauges and histograms
// and renders them in the Prometheus text exposition format (0.0.4).
//
// A package that counts something declares each metric once, at package
// level, with its exposition name and HELP text; NewCounter, NewGauge,
// NewCounterVec and GaugeFunc register it for Writer.Registered.
// Counting is one atomic add on the declared value: no lookup, no lock.
//
// Values owned by one instance, such as a job manager or a cluster
// coordinator, are never registered, because a process may build many
// of them (tests do). The handler that owns them writes them through
// the same Writer.
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

// Counter is a cumulative integer count.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter (test and benchmark hygiene).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a float64 value that is set rather than counted.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the last value set, or 0.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// CounterVec is a counter family with one label whose values are fixed
// when it is declared; each value is its own Counter.
type CounterVec struct {
	values   []string
	counters []Counter
}

// With returns the counter of a declared label value. Call it once,
// at declaration, and count on the result.
func (v *CounterVec) With(value string) *Counter {
	for i, val := range v.values {
		if val == value {
			return &v.counters[i]
		}
	}
	panic("metrics: label value " + value + " was not declared")
}

// Histogram counts observations into fixed upper-bounded buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []int64   // per bucket, not cumulative, +Inf last
	sum    float64
}

// NewHistogram returns a histogram over the given ascending bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // per bucket, not cumulative, +Inf last
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Bounds: h.bounds, Counts: append([]int64(nil), h.counts...), Sum: h.sum}
	for _, c := range h.counts {
		s.Count += c
	}
	return s
}

// family is one registered metric family; write emits its samples.
type family struct {
	name, help, typ string
	write           func(w Writer)
}

var (
	mu       sync.Mutex
	families []family
)

func register(name, help, typ string, write func(w Writer)) {
	mu.Lock()
	defer mu.Unlock()
	families = append(families, family{name, help, typ, write})
}

// NewCounter registers a counter family of one series.
func NewCounter(name, help string) *Counter {
	c := new(Counter)
	register(name, help, "counter", func(w Writer) { w.Sample(name, c.Load()) })
	return c
}

// NewCounterVec registers a counter family with one series per label
// value, in the order given.
func NewCounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{values: values, counters: make([]Counter, len(values))}
	register(name, help, "counter", func(w Writer) {
		for i, val := range v.values {
			w.Sample(name, v.counters[i].Load(), label, val)
		}
	})
	return v
}

// NewGauge registers a gauge family of one series.
func NewGauge(name, help string) *Gauge {
	g := new(Gauge)
	register(name, help, "gauge", func(w Writer) { w.Sample(name, g.Load()) })
	return g
}

// GaugeFunc registers a gauge family of one series whose value f
// derives at each scrape.
func GaugeFunc[V int64 | float64](name, help string, f func() V) {
	register(name, help, "gauge", func(w Writer) { w.Sample(name, f()) })
}

// Writer renders metric families in the text exposition format.
// Integers print as %d and floats as %g.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) Writer { return Writer{w} }

// Registered writes every registered family, in registration order.
func (w Writer) Registered() {
	mu.Lock()
	fs := families
	mu.Unlock()
	for _, f := range fs {
		w.Family(f.name, f.help, f.typ)
		f.write(w)
	}
}

// Family writes the HELP and TYPE lines that open a family; typ is
// "counter", "gauge" or "histogram". Its series follow as Samples.
func (w Writer) Family(name, help, typ string) {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one series of value v (an integer or a float64);
// labels are name, value pairs.
func (w Writer) Sample(name string, v any, labels ...string) {
	if len(labels) > 0 {
		pairs := make([]string, 0, len(labels)/2)
		for i := 0; i+1 < len(labels); i += 2 {
			pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
		}
		name += "{" + strings.Join(pairs, ",") + "}"
	}
	fmt.Fprintf(w.w, "%s %v\n", name, v)
}

// Counter writes a counter family of one series.
func (w Writer) Counter(name, help string, v int64) {
	w.Family(name, help, "counter")
	w.Sample(name, v)
}

// Gauge writes a gauge family of one series of value v (an integer or
// a float64).
func (w Writer) Gauge(name, help string, v any) {
	w.Family(name, help, "gauge")
	w.Sample(name, v)
}

// Histogram writes a histogram family: cumulative buckets, sum, count.
func (w Writer) Histogram(name, help string, h HistogramSnapshot) {
	w.Family(name, help, "histogram")
	cum := int64(0)
	for i, le := range h.Bounds {
		cum += h.Counts[i]
		w.Sample(name+"_bucket", cum, "le", fmt.Sprintf("%g", le))
	}
	w.Sample(name+"_bucket", h.Count, "le", "+Inf")
	w.Sample(name+"_sum", h.Sum)
	w.Sample(name+"_count", h.Count)
}
