package cluster

import (
	"bytes"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
)

// launchedLoops builds a 10-node live cluster whose node loops run but whose
// protocol is not armed, so a test owns everything that crosses them.
func launchedLoops(t testing.TB) (*liveRuntime, []msg.ProcID) {
	t.Helper()
	lv, err := NewLive(ringConfig(7, 3, 5, 100, 50))
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	rt, _ := lv.rt.(*liveRuntime)
	rt.launch()
	t.Cleanup(lv.Stop)
	return rt, lv.asg.Nodes
}

// waitFor fails the test unless ch is signalled in time.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
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
	rt, nodes := launchedLoops(t)
	full := make([]gossip.Update, 128)
	for i := range full {
		full[i] = gossip.Update{Origin: gossip.NodeID(10 + i%10), Seq: uint64(i + 1), Kind: updPassedAT, Payload: bytes.Repeat([]byte{byte(i)}, i%17)}
	}
	digest := []gossip.DigestEntry{{Origin: 10, High: 7}, {Origin: 11, High: 0}, {Origin: 19, High: 1 << 40}}
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

// TestInterconnectOrdering is the reliable channels' property: with several
// sources delivering concurrently to one destination at random delays (and
// duplicates right behind), each directed pair's callbacks run in submission
// order and none runs early.
func TestInterconnectOrdering(t *testing.T) {
	rt, nodes := launchedLoops(t)
	const perSource = 300
	dst, sources := nodes[0], nodes[1:6]
	type arrival struct {
		src   msg.ProcID
		seq   int
		early time.Duration // how far ahead of its earliest due instant it ran
	}
	var got []arrival // appended on dst's loop only
	var left sync.WaitGroup
	var submit sync.WaitGroup
	for _, src := range sources {
		submit.Add(1)
		go func(src msg.ProcID) {
			defer submit.Done()
			rng := rand.New(rand.NewSource(int64(src)))
			for seq := 0; seq < perSource; seq++ {
				delay := time.Duration(rng.Int63n(int64(2*time.Millisecond) + 1))
				copies := 1 + rng.Intn(5)/4 // a duplicate every fifth message or so
				notBefore := time.Now().Add(delay)
				for c := 0; c < copies; c++ {
					left.Add(1)
					rt.deliver(src, dst, delay, func() {
						got = append(got, arrival{src: src, seq: seq, early: time.Until(notBefore)})
						left.Done()
					})
				}
			}
		}(src)
	}
	submit.Wait()
	left.Wait()
	last := make(map[msg.ProcID]int)
	for _, a := range got {
		if a.seq < last[a.src] {
			t.Fatalf("pair %d→%d: message %d ran after message %d", a.src, dst, a.seq, last[a.src])
		}
		last[a.src] = a.seq
		if a.early > 0 {
			t.Fatalf("pair %d→%d: message %d ran %v before its due instant", a.src, dst, a.seq, a.early)
		}
	}
	for _, src := range sources {
		if last[src] != perSource-1 {
			t.Fatalf("pair %d→%d: last message run is %d, want %d", src, dst, last[src], perSource-1)
		}
	}
}

// TestInterconnectOnlyOrdersAPair: FIFO holds a pair's later message behind
// its earlier one, but neither another source's delivery nor a datagram to
// the same node waits for them.
func TestInterconnectOnlyOrdersAPair(t *testing.T) {
	rt, nodes := launchedLoops(t)
	dst, a, b := nodes[0], nodes[1], nodes[2]
	var order []string // appended on dst's loop only
	done := make(chan struct{})
	mark := func(s string) func() {
		return func() {
			if order = append(order, s); len(order) == 4 {
				close(done)
			}
		}
	}
	const hold = 40 * time.Millisecond
	began := time.Now()
	rt.deliver(a, dst, hold, mark("a1"))
	rt.deliver(a, dst, 0, mark("a2"))
	rt.deliver(b, dst, 0, mark("b1"))
	rt.datagram(dst, gossip.Packet{Kind: gossip.PacketDigest, From: gossip.NodeID(a)}, 0, func(gossip.Packet) { mark("gossip")() })
	inTime := time.Since(began) < hold // else a1 was due before the others were even submitted
	waitFor(t, done, "four callbacks")
	at := make(map[string]int)
	for i, s := range order {
		at[s] = i
	}
	if at["a2"] < at["a1"] {
		t.Fatalf("order = %v: a2 overtook a1 on the same pair", order)
	}
	if inTime && (at["b1"] > at["a1"] || at["gossip"] > at["a1"]) {
		t.Fatalf("order = %v: b1 and gossip should not wait for pair a", order)
	}
}

// TestLoopTimers: a timer cancelled before it is due never runs, cancelling
// one that ran is harmless, and a callback can re-arm (the TB checkpointer's
// perpetual cycle does exactly that).
func TestLoopTimers(t *testing.T) {
	rt, nodes := launchedLoops(t)
	id := nodes[4]
	const due = 20 * time.Millisecond
	var cancelledRan atomic.Bool
	began := time.Now()
	cancel := rt.after(id, due, func() { cancelledRan.Store(true) })
	cancel()
	inTime := time.Since(began) < due // else the test was too slow to cancel it
	cancel()

	ran := make(chan struct{})
	cancelRan := rt.after(id, 0, func() { close(ran) })
	waitFor(t, ran, "the zero-delay timer")
	cancelRan()

	chain := make(chan struct{})
	hops := 0 // touched on id's loop only
	var hop func()
	hop = func() {
		if hops++; hops == 3 {
			close(chain)
			return
		}
		rt.after(id, time.Millisecond, hop)
	}
	armed := time.Now()
	rt.after(id, time.Millisecond, hop)
	waitFor(t, chain, "the re-armed chain")
	if d := time.Since(armed); d < 3*time.Millisecond {
		t.Fatalf("three 1 ms hops took %v", d)
	}
	time.Sleep(2 * due)
	if inTime && cancelledRan.Load() {
		t.Fatal("cancelled timer ran")
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

// TestLoopPushPopAllocatesNothing: past the caller's own closure, a delivery
// through a warm node loop costs no allocation (event records are recycled,
// the sleep timer is reused).
func TestLoopPushPopAllocatesNothing(t *testing.T) {
	rt, nodes := launchedLoops(t)
	ran := make(chan struct{}, 1)
	fn := func() { ran <- struct{}{} }
	roundTrip := func() {
		rt.deliver(nodes[1], nodes[0], 0, fn)
		<-ran
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(1000, roundTrip); avg != 0 {
		t.Fatalf("deliver through a warm loop allocates %.2f/op, want 0", avg)
	}
}

// BenchmarkLiveInterconnect measures what one event costs on its way through
// a node loop at zero delay — push, wake-up or backlog pop, callback — for
// each of the seam's three asynchronous paths.
func BenchmarkLiveInterconnect(b *testing.B) {
	pkt := gossip.Packet{Kind: gossip.PacketPush, From: 11, TTL: 4,
		Updates: []gossip.Update{{Origin: 11, Seq: 1, Kind: updPassedAT, Payload: make([]byte, 32)}}}
	for _, path := range []string{"deliver", "datagram", "after"} {
		b.Run(path, func(b *testing.B) {
			rt, nodes := launchedLoops(b)
			src, dst := nodes[1], nodes[0]
			var ran atomic.Int64
			done := make(chan struct{})
			fn := func() {
				if ran.Add(1) == int64(b.N) {
					close(done)
				}
			}
			handle := func(gossip.Packet) { fn() }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch path {
				case "deliver":
					rt.deliver(src, dst, 0, fn)
				case "datagram":
					rt.datagram(dst, pkt, 0, handle)
				case "after":
					rt.after(dst, 0, fn)
				}
			}
			<-done
		})
	}
}
