// Package obs is the fleet's dependency-free observability core: a
// metrics registry with atomic hot paths and Prometheus text-format
// exposition, structured-logging (log/slog) setup shared by the CLIs,
// and the HTTP mux that serves /stats, /metrics, and (behind a flag)
// net/http/pprof from one listener.
//
// The registry deliberately implements the small subset of the
// Prometheus data model the ingest tier needs — counters, gauges,
// histograms, fixed label sets — with no external dependencies. Hot
// paths (a counter add, a histogram observe) are one or two atomic
// operations; registration and exposition take a mutex. Gauges, and
// other metrics whose truth lives elsewhere (a queue's length, a
// breaker's state), register as read-only funcs sampled at scrape time,
// so instrumented code never mirrors state it already has.
//
// Naming follows the Prometheus conventions the lint test pins:
// snake_case metric names with a subsystem prefix, counters ending in
// _total, histograms and gauges carrying a unit suffix where one
// applies (_seconds, _bytes, _frames).
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use once obtained from a Registry.
type Counter struct {
	v atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds v; negative deltas panic (a counter only goes up — use a
// GaugeFunc for anything that can fall).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: Counter.Add with negative delta")
	}
	c.v.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// atomicFloat is a float64 with atomic load/add, encoded in a
// uint64. add is a CAS loop; contention on any one metric is far below
// the level where that matters (one add per session, frame, or chunk).
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		cur := math.Float64frombits(old)
		if a.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: observations count into the
// first bucket whose upper bound is >= the value, plus a running sum.
// Observe is bounds-check plus two atomic adds — safe on ingest hot
// paths.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
	total  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// DefBuckets are general-purpose latency bounds in seconds, from 1ms to
// ~4 minutes geometrically: wide enough for a session that streams for
// minutes, fine enough near the bottom for a probe round trip.
func DefBuckets() []float64 {
	return []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 240}
}

// family is one registered metric family: fixed name/help/kind/labels,
// plus either owned children (counter or histogram instances per label
// combination) or a collect func sampled at scrape time.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child // key: joined label values
	order    []*child

	// collect, when non-nil, makes this a read-only family: exposition
	// calls it for fresh samples and the children map stays empty.
	collect func(emit Emit)
}

// child is one label combination's instrument.
type child struct {
	values []string
	c      *Counter
	h      *Histogram
}

// Emit delivers one sample from a collect func: the label values (which
// must match the family's label names positionally) and the value. For
// histogram families collect funcs are not supported; use owned
// histograms.
type Emit func(labelValues []string, v float64)

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name or an invalid
// name/label (misregistration is a programming error, caught by the
// first test that touches the package).
func (r *Registry) register(f *family) *family {
	if !ValidMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !ValidLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	if f.children == nil {
		f.children = make(map[string]*child)
	}
	r.families[f.name] = f
	r.order = append(r.order, f)
	return f
}

// Counter registers (and returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: KindCounter})
	return f.childFor(nil).c
}

// CounterVec is a counter family with labels; obtain children with With.
type CounterVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: KindCounter, labels: labels})}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets()
	}
	return &HistogramVec{r.register(&family{name: name, help: help, kind: KindHistogram, bounds: bounds, labels: labels})}
}

// With returns the counter for one label-value combination, creating it
// on first use. Hold the returned pointer on hot paths; the lookup
// itself takes the family's mutex.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.childFor(labelValues).c
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.childFor(labelValues).h
}

// CounterFunc registers a read-only counter whose value is sampled at
// scrape time — for monotone totals the instrumented code already
// tracks in its own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindCounter,
		collect: func(emit Emit) { emit(nil, fn()) }})
}

// GaugeFunc registers a read-only gauge sampled at scrape time — for
// live state (queue depth, slots in use, ring occupancy) that needs no
// mirror.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge,
		collect: func(emit Emit) { emit(nil, fn()) }})
}

// CounterVecFunc registers a read-only labeled counter family: collect
// is called at scrape time and emits one sample per label combination.
func (r *Registry) CounterVecFunc(name, help string, labels []string, collect func(emit Emit)) {
	r.register(&family{name: name, help: help, kind: KindCounter, labels: labels, collect: collect})
}

// GaugeVecFunc registers a read-only labeled gauge family sampled at
// scrape time — the shape per-backend circuit state and occupancy use:
// the label set (the membership) changes at runtime, so children cannot
// be pre-created.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(emit Emit)) {
	r.register(&family{name: name, help: help, kind: KindGauge, labels: labels, collect: collect})
}

// childFor returns (creating if needed) the child for labelValues.
func (f *family) childFor(labelValues []string) *child {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	if f.collect != nil {
		panic(fmt.Sprintf("obs: %s is a collect-func family; it owns no children", f.name))
	}
	key := ""
	for i, v := range labelValues {
		if i > 0 {
			key += "\x00"
		}
		key += v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]*child)
	}
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), labelValues...)}
	switch f.kind {
	case KindCounter:
		c.c = &Counter{}
	case KindHistogram:
		c.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// KindOf returns the registered kind of name (and whether it exists).
func (r *Registry) KindOf(name string) (Kind, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return "", false
	}
	return f.kind, true
}
