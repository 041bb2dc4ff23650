package cluster

import (
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
