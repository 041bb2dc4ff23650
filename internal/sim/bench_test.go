package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures the engine's raw event rate with a
// self-rescheduling event chain.
func BenchmarkEventThroughput(b *testing.B) {
	e := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Millisecond, tick)
		}
	}
	e.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleCancel measures timer churn (the TB protocol arms and
// cancels timers continuously).
func BenchmarkScheduleCancel(b *testing.B) {
	e := New(1)
	// Warm past the event queue's compaction threshold so its backing array
	// reaches steady state before measuring.
	for i := 0; i < 32; i++ {
		e.Cancel(e.After(time.Hour, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.After(time.Hour, nil)
		e.Cancel(id)
	}
}
