package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	ss := seriesOf(t, r, "h", "")
	// Cumulative: ≤1 holds {0.5, 1}, ≤2 adds {1.5}, ≤4 adds {3}, +Inf adds {100}.
	want := []uint64{2, 3, 4, 5}
	for i, b := range ss.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(ss.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", ss.Buckets[3].UpperBound)
	}
}

func TestNilRegistryAndNilMetricsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "nil-safe")
	g := r.Gauge("g", "nil-safe")
	h := r.Histogram("h", "nil-safe", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(h.StartTimer())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if !h.StartTimer().IsZero() {
		t.Fatal("nil histogram StartTimer must not read the clock")
	}
	if s := r.Snapshot(); len(s.Families) != 0 {
		t.Fatalf("nil registry snapshot has %d families", len(s.Families))
	}
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "help", L("proc", "P1act"))
	b := r.Counter("c_total", "help", L("proc", "P1act"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("c_total", "help", L("proc", "P2"))
	if a == other {
		t.Fatal("different labels must return distinct series")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("shared counter = %d, want 2", a.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("m", "help")
}

// TestCounterFuncReadsAtSnapshot: a CounterFunc series is its read's value at
// each snapshot, sorted among the incremented series; a re-registration
// keeps the first read; the read runs without the registry's lock, so it may
// itself register (a layer that holds a node while it registers, and a read
// that takes that node, cannot deadlock through the registry).
func TestCounterFuncReadsAtSnapshot(t *testing.T) {
	var nilReg *Registry
	nilReg.CounterFunc("x_total", "x", func() uint64 { return 1 }) // no-op
	r := NewRegistry()
	var n uint64 = 3
	r.Counter("c_total", "c", L("proc", "P2")).Add(7)
	r.CounterFunc("c_total", "c", func() uint64 {
		r.Counter("inner_total", "registered during a read")
		return n
	}, L("proc", "P1act"))
	value := func(s Snapshot, labels string) float64 {
		for _, f := range s.Families {
			for _, ss := range f.Series {
				if f.Name == "c_total" && ss.Labels == labels {
					return ss.Value
				}
			}
		}
		t.Fatalf("no c_total{%s}", labels)
		return 0
	}
	s := r.Snapshot()
	if got := value(s, `proc="P1act"`); got != 3 {
		t.Fatalf("read series = %v, want 3", got)
	}
	if got := value(s, `proc="P2"`); got != 7 {
		t.Fatalf("incremented series = %v, want 7", got)
	}
	n = 5
	if got := value(r.Snapshot(), `proc="P1act"`); got != 5 {
		t.Fatalf("read series after the count moved = %v, want 5", got)
	}
	r.CounterFunc("c_total", "c", func() uint64 { return 11 }, L("proc", "P1act"))
	if got := value(r.Snapshot(), `proc="P1act"`); got != 5 {
		t.Fatalf("re-registered series = %v, want the first read's 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a CounterFunc over an incremented counter must panic")
		}
	}()
	r.CounterFunc("c_total", "c", func() uint64 { return 0 }, L("proc", "P2"))
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Counter("aa_total", "a", L("proc", "P2"))
	r.Counter("aa_total", "a", L("proc", "P1act"))
	s := r.Snapshot()
	if len(s.Families) != 2 || s.Families[0].Name != "aa_total" || s.Families[1].Name != "zz_total" {
		t.Fatalf("families out of order: %+v", s.Families)
	}
	aa := s.Families[0]
	if len(aa.Series) != 2 || aa.Series[0].Labels != `proc="P1act"` || aa.Series[1].Labels != `proc="P2"` {
		t.Fatalf("series out of order: %+v", aa.Series)
	}
}

func TestLabelKeyCanonicalOrderAndEscaping(t *testing.T) {
	a := labelKey([]Label{L("b", "2"), L("a", "1")})
	b := labelKey([]Label{L("a", "1"), L("b", "2")})
	if a != b {
		t.Fatalf("label order must not matter: %q vs %q", a, b)
	}
	if got := labelKey([]Label{L("k", "a\"b\\c\nd")}); got != `k="a\"b\\c\nd"` {
		t.Fatalf("escaping = %q", got)
	}
}

func TestObserveSinceRecordsElapsed(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{10})
	start := h.StartTimer()
	if start.IsZero() {
		t.Fatal("live histogram StartTimer returned zero time")
	}
	time.Sleep(time.Millisecond)
	h.ObserveSince(start)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("sum = %v, want > 0", h.Sum())
	}
	h.ObserveSince(time.Time{}) // zero start must not record
	if h.Count() != 1 {
		t.Fatal("zero start must be a no-op")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "racy")
	g := r.Gauge("g", "racy")
	h := r.Histogram("h", "racy", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per || h.Sum() != workers*per {
		t.Fatalf("histogram count=%d sum=%v, want %d", h.Count(), h.Sum(), workers*per)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "hot")
	h := r.Histogram("h", "hot", ExpBuckets(0.001, 2, 10))
	if avg := testing.AllocsPerRun(1000, func() { c.Inc() }); avg != 0 {
		t.Fatalf("Counter.Inc allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(0.01) }); avg != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", avg)
	}
	var nilC *Counter
	var nilH *Histogram
	if avg := testing.AllocsPerRun(1000, func() { nilC.Inc(); nilH.Observe(1) }); avg != 0 {
		t.Fatalf("nil metrics allocate %v/op, want 0", avg)
	}
}

// seriesOf extracts one series from a snapshot for assertions.
func seriesOf(t *testing.T, r *Registry, name, labels string) SeriesSnapshot {
	t.Helper()
	for _, f := range r.Snapshot().Families {
		if f.Name != name {
			continue
		}
		for _, ss := range f.Series {
			if ss.Labels == labels {
				return ss
			}
		}
	}
	t.Fatalf("series %s{%s} not found", name, labels)
	return SeriesSnapshot{}
}
