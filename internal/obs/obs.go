// Package obs is the repository's stdlib-only observability subsystem: a
// metrics registry of atomic counters, gauges and fixed-bucket histograms
// with an allocation-free hot path, a deterministic snapshot API, and (in
// export.go) Prometheus-text and JSON exporters plus a pprof-wired HTTP
// server.
//
// The paper's coordinated protocol is evaluated by quantities that only
// exist at runtime — stable-checkpoint rates by kind, dirty-bit flips,
// blocking-period lengths τ(b), recovery latencies — so the live middleware
// threads a *Registry through every layer. Two design rules keep the
// instrumentation honest:
//
//  1. Nil-safety. A nil *Registry yields nil metrics, and every method on a
//     nil *Counter/*Gauge/*Histogram is a no-op, so the deterministic
//     simulator and campaign paths run the exact same protocol code with
//     instrumentation compiled in and pay only a nil check.
//  2. Zero allocations on the hot path. Counter.Inc and Histogram.Observe
//     are a single atomic op (plus a bounded bucket scan); the benchmarks
//     in bench_test.go assert 0 allocs/op the same way the eventq heap
//     does, so a regression fails the check.sh bench smoke.
//
// Metrics are identified by name plus an optional fixed label set (the live
// middleware labels per-node series with proc="P1act" etc.). Registering the
// same identity twice returns the same metric — essential for counters that
// must survive a node rebuild across KillNode/RestartNode.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one fixed name/value pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter no-ops, so disabled instrumentation costs one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (lock-free CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are immutable
// after registration: Observe is a bounded scan over the sorted upper bounds
// plus two atomic ops, lock-free and allocation-free. A nil *Histogram
// no-ops.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; counts has one extra +Inf slot
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveN records n samples of the same value with one bucket scan and one
// sum update — for batch-structured hot paths (a transport batch delivers n
// messages with one measured latency) where per-sample Observe calls would
// dominate. Equivalent to calling Observe(v) n times.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + add)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// StartTimer returns the clock reading latency observations are measured
// from, or the zero time when the histogram is nil — so disabled
// instrumentation never touches the clock. Pair with ObserveSince.
func (h *Histogram) StartTimer() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the seconds elapsed since start (from StartTimer).
// No-op on a nil histogram or a zero start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n upper bounds starting at start and growing by factor —
// the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds the process's metrics. The zero value is NOT usable — use
// NewRegistry — but a nil *Registry is: every constructor returns a nil
// metric, so instrumented code runs unchanged with observability off.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups every labeled series of one metric name.
type family struct {
	name, help string
	kind       string
	bounds     []float64 // histogram families only
	series     map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter registered under name+labels, creating it on
// first use. Returns nil on a nil registry. Panics if the name is already
// registered as a different kind (a programming error).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.series(name, help, kindCounter, nil, labels, func() any { return &Counter{} })
	return m.(*Counter)
}

// counterFunc is a counter series whose value is a count some layer keeps
// for itself, read when a snapshot is taken.
type counterFunc func() uint64

// CounterFunc registers a counter series whose value is read, at every
// snapshot, from a count the caller already keeps, so an event is counted
// once, where it happens. Snapshot calls read without the registry's lock:
// read may take the locks its count lives under, even ones held elsewhere
// while series are registered. Registering the identity again keeps the
// first read. Does nothing on a nil registry; panics if the identity is a
// counter the caller increments.
func (r *Registry) CounterFunc(name, help string, read func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	if _, ok := r.series(name, help, kindCounter, nil, labels, func() any { return counterFunc(read) }).(counterFunc); !ok {
		panic(fmt.Sprintf("obs: counter %s is incremented, not read", name))
	}
}

// Gauge returns the gauge registered under name+labels, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.series(name, help, kindGauge, nil, labels, func() any { return &Gauge{} })
	return m.(*Gauge)
}

// Histogram returns the histogram registered under name+labels, creating it
// with the given sorted upper bounds on first use. Returns nil on a nil
// registry. Every series of one name shares the family's bucket layout (the
// first registration wins).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing", name))
		}
	}
	m := r.series(name, help, kindHistogram, bounds, labels, nil)
	return m.(*Histogram)
}

// series is the common get-or-create path; mk builds a counter/gauge, while
// histograms are built here from the family's bucket layout.
func (r *Registry) series(name, help, kind string, bounds []float64, labels []Label, mk func() any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		if kind == kindHistogram {
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	if kind == kindHistogram {
		h := &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		m = h
	} else {
		m = mk()
	}
	f.series[key] = m
	return m
}

// labelKey serializes a label set into the family's series key (and the
// exporter's label string), sorted by key for a canonical identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Snapshot is a point-in-time copy of every registered metric, ordered by
// family name then label string, so rendering it is deterministic.
type Snapshot struct {
	Families []FamilySnapshot
}

// FamilySnapshot is one metric name with all its labeled series.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   string
	Series []SeriesSnapshot
}

// SeriesSnapshot is one labeled series' current value.
type SeriesSnapshot struct {
	// Labels is the canonical label string (`proc="P1act"`; empty when
	// unlabeled).
	Labels string
	// Value holds counter and gauge readings.
	Value float64
	// Buckets, Sum and Count hold histogram readings; Buckets are
	// cumulative counts per upper bound, with the final +Inf bucket equal
	// to Count.
	Buckets []BucketSnapshot
	Sum     float64
	Count   uint64
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound float64 // math.Inf(1) for the +Inf bucket
	Count      uint64  // cumulative
}

// Snapshot captures every metric's current value. Safe for concurrent use
// with the hot-path updates (readings are atomic per metric, not globally).
// The counters registered with CounterFunc are read after the registry's lock
// is released. Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	var reads []pendingRead
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var s Snapshot
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ss := SeriesSnapshot{Labels: k}
			switch m := f.series[k].(type) {
			case *Counter:
				ss.Value = float64(m.Value())
			case counterFunc:
				reads = append(reads, pendingRead{len(s.Families), len(fs.Series), m})
			case *Gauge:
				ss.Value = m.Value()
			case *Histogram:
				cum := uint64(0)
				ss.Buckets = make([]BucketSnapshot, len(m.bounds)+1)
				for i := range m.counts {
					cum += m.counts[i].Load()
					ub := math.Inf(1)
					if i < len(m.bounds) {
						ub = m.bounds[i]
					}
					ss.Buckets[i] = BucketSnapshot{UpperBound: ub, Count: cum}
				}
				ss.Count = cum
				ss.Sum = m.Sum()
			}
			fs.Series = append(fs.Series, ss)
		}
		s.Families = append(s.Families, fs)
	}
	r.mu.Unlock()
	for _, rd := range reads {
		s.Families[rd.family].Series[rd.series].Value = float64(rd.read())
	}
	return s
}

// pendingRead is a CounterFunc series a snapshot reads once it has released
// the registry's lock.
type pendingRead struct {
	family, series int
	read           counterFunc
}
