package cluster

import (
	"bytes"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gossip"
)

// waitFor fails the test unless ch is signalled in time.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestLiveTenNodeChaosSoak(t *testing.T) {
	cfg := ringConfig(7, 3, 77, 200, 100) // 10 nodes
	cfg.CheckpointInterval = 40 * time.Millisecond
	cfg.Chaos = chaos.Spec{
		Seed:          3,
		Drop:          0.02,
		Duplicate:     0.02,
		MaxExtraDelay: time.Millisecond,
		Partitions: []chaos.Partition{{
			A: 10, B: 12, Bidirectional: true,
			Start: 200 * time.Millisecond, End: 400 * time.Millisecond,
		}},
	}
	lv, err := NewLive(cfg)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	if got := lv.Nodes(); got != 10 {
		t.Fatalf("Nodes = %d, want 10", got)
	}
	lv.Start()
	lv.RunFor(900 * time.Millisecond)

	// Mid-run sample: the line must already be clean while traffic flows.
	round, violations, _, err := lv.SampleInvariants()
	if err != nil {
		t.Fatalf("mid-run SampleInvariants: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("round %d: mid-run violations: %v", round, violations)
	}

	lv.Settle()
	checkRun(t, lv.Cluster, 1, false)

	lv.Stop()
	lv.Stop() // idempotent
	// Post-stop reads stay usable.
	if got := lv.Stats(); got.MsgsSent == 0 {
		t.Fatal("post-stop stats unreadable")
	}
}

func samePacket(a, b gossip.Packet) bool {
	if a.Kind != b.Kind || a.From != b.From || a.TTL != b.TTL || a.Reply != b.Reply ||
		len(a.Updates) != len(b.Updates) || len(a.Digest) != len(b.Digest) {
		return false
	}
	for i, u := range a.Updates {
		v := b.Updates[i]
		if u.Origin != v.Origin || u.Seq != v.Seq || u.Kind != v.Kind || !bytes.Equal(u.Payload, v.Payload) {
			return false
		}
	}
	for i, e := range a.Digest {
		if e != b.Digest[i] {
			return false
		}
	}
	return true
}

// TestDatagramCarriesEveryPacketKind sends one packet of each shape through
// the encoded wire format and a node loop: what handle receives is what was
// sent (a codec regression panics in datagram instead of reading as loss).
func TestDatagramCarriesEveryPacketKind(t *testing.T) {
	lv, err := NewLive(ringConfig(7, 3, 5, 100, 50)) // node loops run, nothing is armed
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	t.Cleanup(lv.Stop)
	rt, nodes := lv.Cluster.rt, lv.asg.Nodes
	var full []gossip.Update // the newest of every (origin, kind) of ten members: the largest delta they send
	for i := 0; i < 10; i++ {
		origin := gossip.NodeID(10 + i)
		full = append(full,
			gossip.Update{Origin: origin, Seq: uint64(2*i + 2), Kind: updPassedAT, Payload: bytes.Repeat([]byte{byte(i)}, 12+10*(i%8))},
			gossip.Update{Origin: origin, Seq: uint64(2*i + 1), Kind: updResync, Payload: encodeResync(uint64(i))})
	}
	digest := []gossip.DigestEntry{{Origin: 10, Kind: updPassedAT, High: 7}, {Origin: 11, Kind: updResync, High: 0}, {Origin: 19, Kind: updPassedAT, High: 1 << 40}}
	for name, p := range map[string]gossip.Packet{
		"push with TTL": {Kind: gossip.PacketPush, From: 12, TTL: 5, Updates: []gossip.Update{{Origin: 12, Seq: 9, Kind: updResync, Payload: encodeResync(3)}}},
		"digest":        {Kind: gossip.PacketDigest, From: 13, Digest: digest},
		"reply digest":  {Kind: gossip.PacketDigest, From: 13, Digest: digest, Reply: true},
		"full delta":    {Kind: gossip.PacketDelta, From: 14, Updates: full},
		"empty payload": {Kind: gossip.PacketPush, From: 15, TTL: 1, Updates: []gossip.Update{{Origin: 15, Seq: 1, Kind: updPassedAT, Payload: []byte{}}}},
		"empty digest":  {Kind: gossip.PacketDigest, From: 16},
	} {
		got := make(chan gossip.Packet, 1)
		rt.datagram(nodes[3], p, 0, func(q gossip.Packet) { got <- q })
		select {
		case q := <-got:
			if !samePacket(p, q) {
				t.Errorf("%s: sent %+v, handled %+v", name, p, q)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: never handled", name)
		}
	}
}

// settledGoroutines counts goroutines, giving those that have signalled their
// exit but are still unwinding a moment to go.
func settledGoroutines(want int) int {
	for end := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > want && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	return goruntime.NumGoroutine()
}

// TestLiveLifecycle: Stop ends every goroutine Start launched, works without
// Start and twice, and leaves the read paths usable.
func TestLiveLifecycle(t *testing.T) {
	before := goruntime.NumGoroutine()
	var last *Live
	for i := 0; i < 20; i++ {
		lv, err := NewLive(ringConfig(7, 3, int64(i), 2000, 500))
		if err != nil {
			t.Fatalf("NewLive: %v", err)
		}
		lv.Start()
		for end := time.Now().Add(10 * time.Second); lv.Stats().MsgsSent == 0 && time.Now().Before(end); {
			lv.RunFor(time.Millisecond)
		}
		lv.Stop()
		last = lv
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before, %d after twenty Start/Stop cycles", before, after)
	}

	unstarted, err := NewLive(ringConfig(7, 3, 1, 100, 50))
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	for _, lv := range []*Live{unstarted, last} {
		returned := make(chan struct{})
		go func() {
			lv.Stop()
			lv.Stop()
			lv.Start() // a stopped cluster launches nothing
			close(returned)
		}()
		waitFor(t, returned, "Stop")
	}
	if st := last.Stats(); st.MsgsSent == 0 {
		t.Fatal("post-stop Stats unreadable")
	}
	if ins := last.Inspect(); len(ins.Active) != 7 {
		t.Fatalf("post-stop Inspect: %d live components, want 7", len(ins.Active))
	}
	// So short a run has no common round to sample; answering is the point.
	if _, _, _, err := last.CheckInvariants(); err != nil {
		t.Logf("post-stop CheckInvariants: %v", err)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before, %d after Start on stopped clusters", before, after)
	}
}

// TestLiveSoftwareRecovery: a software fault on the wall clock, under load, is
// recovered instead of panicking — exactly one recovery and one takeover, and
// an acceptance test failing again before the recovery procedure has the
// membership starts no second one.
func TestLiveSoftwareRecovery(t *testing.T) {
	lv, err := NewLive(ringConfig(7, 3, 145, 400, 100)) // 10 nodes
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	t.Cleanup(lv.Stop)
	lv.Start()
	lv.RunFor(300 * time.Millisecond)
	if !lv.CorruptActive(1) {
		t.Fatal("CorruptActive(1) found no guarded active")
	}
	// The procedure takes the nodes in ascending order and C1's replicas are
	// the lowest two, so while the test holds them — as any external event
	// of C1 does — no recovery can start: both failures below are raised in
	// the same epoch. (If C1's own stream failed its test first, these two
	// find the active already retired and raise nothing.)
	c1 := lv.targetNodes(1)
	lv.hold(c1)
	lv.nodes[c1[0]].emitExternal()
	lv.nodes[c1[0]].emitExternal()
	lv.release(c1)
	for end := time.Now().Add(10 * time.Second); lv.Stats().Recoveries == 0 && time.Now().Before(end); {
		lv.RunFor(time.Millisecond)
	}
	lv.RunFor(300 * time.Millisecond) // the promoted shadow carries the load on
	lv.Settle()

	st := lv.Stats()
	if st.Recoveries != 1 || st.Takeovers != 1 {
		t.Fatalf("recoveries = %d, takeovers = %d, want 1 and 1", st.Recoveries, st.Takeovers)
	}
	if st.Rollbacks+st.RollForwards == 0 {
		t.Fatal("no replica made a local recovery decision")
	}
	if got, want := lv.Inspect().Active[1], lv.asg.Shadow[1]; got != want {
		t.Fatalf("component 1 is embodied by node %d, want its shadow %d", got, want)
	}
	if lv.CorruptActive(1) {
		t.Fatal("component 1 still has a guarded active after the takeover")
	}
	round, violations, _, err := lv.CheckInvariants()
	if err != nil {
		t.Fatalf("CheckInvariants after Settle: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("round %d: recovery-line violations after the recovery: %v", round, violations)
	}
}
