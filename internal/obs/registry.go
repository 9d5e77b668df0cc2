package obs

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
)

// A Registry holds named metrics and renders them in Prometheus text
// format. All methods are safe for concurrent use; registration is
// typically done once at startup, observation from any goroutine.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*registered
}

// registered binds one exposition family: a metric name, its help
// string, its type, an optional pre-rendered label set, and the
// collector producing sample values.
type registered struct {
	name   string
	help   string
	labels string // pre-rendered `{k="v",...}`, or ""
	c      collector
}

// collector is the sampling side of one metric.
type collector interface {
	// typ is the Prometheus type: "counter", "gauge", or "histogram".
	typ() string
	// emit appends the metric's sample lines. name and labels are the
	// registered exposition name and pre-rendered label block.
	emit(b []byte, name, labels string) []byte
	// sample appends the metric's numeric samples, one per exposition
	// series, keyed by the same name{labels} identity emit renders.
	// This is the structured twin of emit: the in-process TSDB reads it.
	sample(out []SnapshotSample, name, labels string) []SnapshotSample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*registered)}
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// A Label is one constant name/value pair attached to a metric at
// registration time.
type Label struct {
	Name  string
	Value string
}

// register installs a collector under name or panics: metric
// registration happens at startup with literal names, so a collision or
// a malformed name is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, labels []Label, c collector) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.metrics[name] = &registered{name: name, help: help, labels: rendered, c: c}
}

// renderLabels produces the canonical `{a="x",b="y"}` block. Labels are
// rendered in the order given (callers pass literals; exposition golden
// tests pin the order), with values escaped per the text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	b := make([]byte, 0, 64)
	b = append(b, '{')
	for i, l := range labels {
		if !labelNameRE.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, '=', '"')
		b = appendEscapedLabelValue(b, l.Value)
		b = append(b, '"')
	}
	b = append(b, '}')
	return string(b)
}

// appendEscapedLabelValue escapes backslash, double quote, and newline,
// the three characters the text format requires escaping in label
// values.
func appendEscapedLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter with an externally maintained monotonic
// total. It exists for instrumented code that already keeps its own
// cumulative tallies (the simulator's join/report counts) and pushes
// them into the registry at safe points; callers must guarantee
// monotonicity themselves.
func (c *Counter) Set(total uint64) { c.v.Store(total) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) typ() string { return "counter" }

func (c *Counter) emit(b []byte, name, labels string) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, c.Value(), 10)
	return append(b, '\n')
}

func (c *Counter) sample(out []SnapshotSample, name, labels string) []SnapshotSample {
	return append(out, SnapshotSample{Series: name + labels, Value: float64(c.Value())})
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, nil, c)
	return c
}

// counterFunc samples a callback at exposition time.
type counterFunc func() uint64

func (f counterFunc) typ() string { return "counter" }

func (f counterFunc) emit(b []byte, name, labels string) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, f(), 10)
	return append(b, '\n')
}

func (f counterFunc) sample(out []SnapshotSample, name, labels string) []SnapshotSample {
	return append(out, SnapshotSample{Series: name + labels, Value: float64(f())})
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time. fn must be safe to call from the scraping goroutine
// (e.g. an atomic load).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, nil, counterFunc(fn))
}

// A Gauge is a value that can go up and down, stored as float64 bits in
// an atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (atomically, via compare-and-swap).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) typ() string { return "gauge" }

func (g *Gauge) emit(b []byte, name, labels string) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = appendFloat(b, g.Value())
	return append(b, '\n')
}

func (g *Gauge) sample(out []SnapshotSample, name, labels string) []SnapshotSample {
	return append(out, SnapshotSample{Series: name + labels, Value: g.Value()})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, nil, g)
	return g
}

// GaugeWith registers a gauge carrying constant labels (e.g. the
// build-info pseudo-metric).
func (r *Registry) GaugeWith(name, help string, labels []Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, labels, g)
	return g
}

// gaugeFunc samples a callback at exposition time.
type gaugeFunc func() float64

func (f gaugeFunc) typ() string { return "gauge" }

func (f gaugeFunc) emit(b []byte, name, labels string) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = appendFloat(b, f())
	return append(b, '\n')
}

func (f gaugeFunc) sample(out []SnapshotSample, name, labels string) []SnapshotSample {
	return append(out, SnapshotSample{Series: name + labels, Value: f()})
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time. fn must be safe to call from the scraping goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, nil, gaugeFunc(fn))
}

// shardFamily is an n-member tier's family: one collector per member,
// each sampled under its own label block, {shard="K"} with K = i+1 —
// 1-based, like the journal's shard labels. A member renders exactly as
// a one-member family does, so a counter prints the same digits at any
// tier size.
type shardFamily struct {
	members []collector
	labels  []string
}

func (s shardFamily) typ() string { return s.members[0].typ() }

func (s shardFamily) emit(b []byte, name, _ string) []byte {
	for i, m := range s.members {
		b = m.emit(b, name, s.labels[i])
	}
	return b
}

func (s shardFamily) sample(out []SnapshotSample, name, _ string) []SnapshotSample {
	for i, m := range s.members {
		out = m.sample(out, name, s.labels[i])
	}
	return out
}

// ShardCounterFunc registers a counter family over an n-member tier (a
// sharded ingest fleet's servers, or their sinks) whose member i reads
// fn(i) at exposition time. A one-member tier is exposed unlabeled,
// exactly as CounterFunc exposes it; a larger one as one family with a
// shard="K" sample per member, K ascending. This is the one place a
// registration depends on the tier size; n must be at least 1. fn must
// be safe to call from the scraping goroutine.
func (r *Registry) ShardCounterFunc(name, help string, n int, fn func(i int) uint64) {
	members := make([]collector, n)
	for i := range members {
		members[i] = counterFunc(func() uint64 { return fn(i) })
	}
	r.registerShards(name, help, members)
}

// ShardGaugeFunc is ShardCounterFunc for gauge families.
func (r *Registry) ShardGaugeFunc(name, help string, n int, fn func(i int) float64) {
	members := make([]collector, n)
	for i := range members {
		members[i] = gaugeFunc(func() float64 { return fn(i) })
	}
	r.registerShards(name, help, members)
}

// registerShards registers one member unlabeled, and more as a
// shardFamily.
func (r *Registry) registerShards(name, help string, members []collector) {
	if len(members) == 1 {
		r.register(name, help, nil, members[0])
		return
	}
	labels := make([]string, len(members))
	for i := range labels {
		labels[i] = `{shard="` + strconv.Itoa(i+1) + `"}`
	}
	r.register(name, help, nil, shardFamily{members: members, labels: labels})
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds (see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, nil, h)
	return h
}

// appendFloat renders a float64 in the shortest exact form, with the
// spellings the Prometheus text format expects for the special values.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, +1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
