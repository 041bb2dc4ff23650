package obs

import "testing"

// The acceptance gate for the hot path: both benchmarks assert 0 allocs/op
// with testing.AllocsPerRun (the eventq idiom) in addition to
// reporting allocs, so the check.sh bench smoke fails on a regression even
// at 1x benchtime.

func BenchmarkObsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_counter_total", "benchmark counter", L("proc", "P1act"))
	if avg := testing.AllocsPerRun(1000, func() { c.Inc() }); avg != 0 {
		b.Fatalf("Counter.Inc allocates %v/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_hist_seconds", "benchmark histogram", ExpBuckets(0.0005, 2, 12))
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); avg != 0 {
		b.Fatalf("Histogram.Observe allocates %v/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkObsCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_counter_parallel_total", "benchmark counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
