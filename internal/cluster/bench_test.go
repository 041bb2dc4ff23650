package cluster

import (
	goruntime "runtime"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
)

// BenchmarkCluster10FlatOut is the cluster10-live workload of BENCHMARK.json —
// a 10-node ring, 7 components, 3 guarded with shadows, generator rates so
// high the streams fire back to back, Δ = 50 ms — as a benchmark whose unit of
// work is one delivered message: it runs from Start until b.N have been
// delivered, so ns/op is the reciprocal of the throughput, allocs/op is
// allocations per message, and
//
//	go test -run '^$' -bench Cluster10FlatOut -benchtime 1000000x \
//	    -cpuprofile cpu.out -memprofile mem.out ./internal/cluster
//
// profiles a million messages of it (about eight seconds here) and little
// else: there is no warm-up to profile, and the N = 1 trial run the testing
// package makes first ends at the first poll. scripts/cpu_buckets.sh cpu.out
// 1000000 then says where the time went.
func BenchmarkCluster10FlatOut(b *testing.B) {
	lv, err := NewLive(Config{
		Topology:           Ring(7, 3, 200000, 20000, at.Perfect()),
		Seed:               1,
		CheckpointInterval: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatalf("NewLive: %v", err)
	}
	defer lv.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	lv.Start()
	for lv.Stats().MsgsDelivered < uint64(b.N) {
		lv.RunFor(10 * time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkCluster100Sim is the cluster phase of BENCHMARK.json's sim-paper
// workload — a 100-node ring of 70 components, 30 guarded with shadows,
// internal and external generator rates of 50 and 5 per second, five virtual
// seconds — as a benchmark whose unit of work is one such run. Assembly and Start stay
// outside the timer, as they do in sim-paper, so ns/op is the run's wall time,
// B/op and allocs/op are what the five simulated seconds allocate, and gc/op
// counts the collections that ran meanwhile.
//
//	go test -run '^$' -bench Cluster100Sim -benchtime 5x \
//	    -cpuprofile cpu.out ./internal/cluster
//
// profiles six runs (the N = 1 trial run, then five), set-up included;
// scripts/cpu_buckets.sh cpu.out <6 × delivered/op> says where the time
// went, per delivered message.
func BenchmarkCluster100Sim(b *testing.B) {
	b.ReportAllocs()
	var delivered uint64
	var gcs uint32
	var ms goruntime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewSim(Config{Topology: Ring(70, 30, 50, 5, at.Perfect()), Seed: 1})
		if err != nil {
			b.Fatalf("NewSim: %v", err)
		}
		s.Start()
		goruntime.ReadMemStats(&ms)
		gc0 := ms.NumGC
		b.StartTimer()
		s.RunFor(5 * time.Second)
		b.StopTimer()
		goruntime.ReadMemStats(&ms)
		gcs += ms.NumGC - gc0
		delivered += s.Stats().MsgsDelivered
		s.Stop()
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
	b.ReportMetric(float64(gcs)/float64(b.N), "gc/op")
}
