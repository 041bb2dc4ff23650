//go:build !race

package cluster

import "testing"

// Under the race detector sync.Pool drops a quarter of what it is given, so a
// pooled path's allocation count means nothing there.

// TestLiveDatagramAllocatesNothing: once its pooled value exists, a gossip
// packet's trip — encode, post, pop, decode in place, handle, recycle — costs
// no allocation.
func TestLiveDatagramAllocatesNothing(t *testing.T) {
	_, _, send, wait := liveDatagrams(t)
	roundTrip := func() {
		send(onePush)
		wait()
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(1000, roundTrip); avg != 0 {
		t.Fatalf("a live datagram round trip allocates %.2f/op, want 0", avg)
	}
}
