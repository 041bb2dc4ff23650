package cluster

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
)

// liveDatagrams builds a live cluster with nothing armed — its node loops
// run, the test owns what crosses them — and returns its datagram carrier, a
// destination, and the two halves of a trip through the codec and the
// destination's loop: send one packet, wait until one has been handled.
func liveDatagrams(t testing.TB) (rt *liveRuntime, to msg.ProcID, send func(gossip.Packet), wait func()) {
	t.Helper()
	lv, err := NewLive(ringConfig(7, 3, 5, 100, 50))
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	t.Cleanup(lv.Stop)
	rt, to = lv.Cluster.rt.(*liveRuntime), lv.asg.Nodes[3]
	handled := make(chan struct{}, 16) // as many as a test has in flight at once
	handle := func(gossip.Packet) { handled <- struct{}{} }
	return rt, to, func(p gossip.Packet) { rt.datagram(to, p, 0, handle) }, func() { <-handled }
}

var onePush = gossip.Packet{Kind: gossip.PacketPush, From: 12, TTL: 3, Updates: []gossip.Update{
	{Origin: 12, Seq: 9, Kind: updPassedAT, Payload: make([]byte, 12+10*7)}, // a passed-AT vector naming all seven components
}}

// BenchmarkLiveDatagram is one gossip packet's trip — encode, post, pop,
// decode in place, handle, recycle — which check.sh's alloc gate holds to no
// allocation once the pooled value exists.
func BenchmarkLiveDatagram(b *testing.B) {
	_, _, send, wait := liveDatagrams(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(onePush)
		wait()
	}
}

// TestDatagramPoolKeepsNoOversizedBuffer: a datagram that carried a full
// delta or a wide digest grew its frame and its scratch; recycled, that memory
// would ride along under every later single-update push. After both have
// made the trip, nothing the pool hands out is above what such a push needs.
func TestDatagramPoolKeepsNoOversizedBuffer(t *testing.T) {
	// One P, so the pool has one place to keep things and Get sees all of it.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	rt, to, send, wait := liveDatagrams(t)
	delta := gossip.Packet{Kind: gossip.PacketDelta, From: 14, Updates: make([]gossip.Update, 128)}
	for i := range delta.Updates {
		delta.Updates[i] = gossip.Update{Origin: gossip.NodeID(10 + i%10), Seq: uint64(i + 1), Kind: updPassedAT, Payload: make([]byte, 62)}
	}
	digest := gossip.Packet{Kind: gossip.PacketDigest, From: 13, Digest: make([]gossip.DigestEntry, 100)}
	for _, p := range []gossip.Packet{onePush, delta, onePush, digest} {
		send(p)
		wait()
	}
	const together = 8 // eight values to recycle: the race detector's pool drops a Put in four
	for i := 0; i < together; i++ {
		send(onePush)
	}
	for i := 0; i < together; i++ {
		wait()
	}
	settled := make(chan struct{})
	rt.Post(to, 0, func() { close(settled) }) // behind the last datagram's recycling
	waitFor(t, settled, "the loop to pass the last datagram")
	handed := 0
	for {
		d, _ := rt.datagrams.Get().(*datagram)
		if d == nil {
			break
		}
		handed++
		if cap(d.frame) > keepFrameCap || cap(d.pkt.Updates) > keepUpdatesCap || cap(d.pkt.Digest) > keepDigestCap {
			t.Errorf("the pool handed out a datagram with a %d B frame, room for %d updates and %d digest entries (caps %d / %d / %d)",
				cap(d.frame), cap(d.pkt.Updates), cap(d.pkt.Digest), keepFrameCap, keepUpdatesCap, keepDigestCap)
		}
		if d.handle != nil {
			t.Error("a pooled datagram still refers to its handler")
		}
	}
	if handed == 0 {
		t.Fatal("the pool handed out nothing: single-update pushes are not being recycled")
	}
}

// queueing is a runtime that keeps Deliver's callbacks instead of running
// them, for a test to run in the order it chooses.
type queueing struct {
	runtime
	fns []func()
}

func (q *queueing) Deliver(_, _ msg.ProcID, _ time.Duration, fn func()) { q.fns = append(q.fns, fn) }

// TestDuplicateFrameTakesItsOwnArrival: a chaos Duplicate verdict queues the
// copy twice, and each queue entry owns the arrival it points at. With one
// shared, the first entry's run would recycle it, the next send would take and
// overwrite it, and the second entry would deliver that send's message
// instead of the duplicate.
func TestDuplicateFrameTakesItsOwnArrival(t *testing.T) {
	cfg := ringConfig(3, 1, 9, 100, 50)
	cfg.Chaos = chaos.Spec{Seed: 1, Duplicate: 1}
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	q := &queueing{runtime: s.Cluster.rt}
	s.Cluster.rt = q
	from, to := s.nodes[s.asg.Active[1]], s.nodes[s.asg.Active[2]]
	first := Msg{FromComp: 1, ToComp: 2, From: from.id, To: to.id, Seq: 1, Influence: make([]uint64, len(s.comps.ids))}
	s.transmit(first)
	if len(q.fns) != 2 {
		t.Fatalf("a duplicated frame made %d queue entries, want 2", len(q.fns))
	}
	original, duplicate := q.fns[0], q.fns[1]
	original() // read, acknowledged (the ack queues too), its arrival recycled
	second := first
	second.Seq = 2
	s.transmit(second) // takes what the pool has
	duplicate()
	if st := s.stats(); st.MsgsDelivered != 2 || st.DupsDiscarded != 1 || to.recvSeq[from.slot] != 1 {
		t.Fatalf("after the original and its duplicate: delivered %d, discarded as duplicates %d, channel high-water %d; want 2, 1 and 1",
			st.MsgsDelivered, st.DupsDiscarded, to.recvSeq[from.slot])
	}
}

// TestLiveEveryFrameDuplicated runs a live cluster with every reliable frame
// duplicated: each copy sent arrives twice and is discarded once, on loops
// that recycle arrivals under the senders' feet (run it with -race).
func TestLiveEveryFrameDuplicated(t *testing.T) {
	cfg := ringConfig(7, 3, 31, 2000, 200) // 10 nodes
	cfg.Chaos = chaos.Spec{Seed: 2, Duplicate: 1}
	lv, err := NewLive(cfg)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	t.Cleanup(lv.Stop)
	lv.Start()
	lv.RunFor(300 * time.Millisecond)
	lv.Settle()
	st := lv.Stats()
	if st.MsgsSent == 0 || st.MsgsDelivered != 2*st.MsgsSent || st.DupsDiscarded != st.MsgsSent {
		t.Fatalf("sent %d, delivered %d, discarded as duplicates %d: want every copy delivered twice and discarded once",
			st.MsgsSent, st.MsgsDelivered, st.DupsDiscarded)
	}
	checkRun(t, lv.Cluster, 1, false)
}

// TestSimDatagramOwnsWhatItKeeps: the simulator's datagram borrows the packet
// as gossip.Copier's Send does — it copies what it keeps, and carries an
// empty slice as nil. Once a member that held nothing handed it an empty
// digest that was the member's pooled buffer, kept as it was: recycled by
// both, the buffer had two owners. Sent an empty and a non-empty digest and a
// delta, and scribbled over by their sender once datagram returns, the
// runtime must deliver what was sent and end with free lists that hold each
// buffer once, none of them the sender's.
func TestSimDatagramOwnsWhatItKeeps(t *testing.T) {
	s, err := NewSim(ringConfig(3, 1, 9, 100, 50))
	if err != nil {
		t.Fatal(err)
	}
	rt := s.Cluster.rt.(*simRuntime)
	to := s.asg.Nodes[1]
	empty := make([]gossip.DigestEntry, 0, 8) // what a member that holds nothing stages
	digest := append(make([]gossip.DigestEntry, 0, 8), gossip.DigestEntry{Origin: 10, Kind: 1, High: 3}, gossip.DigestEntry{Origin: 11, Kind: 2, High: 5})
	delta := append(make([]gossip.Update, 0, 8), gossip.Update{Origin: 10, Seq: 3, Kind: 1}, gossip.Update{Origin: 11, Seq: 5, Kind: 2})
	var got []string
	handle := func(p gossip.Packet) { got = append(got, fmt.Sprint(p.Digest, p.Updates)) }
	var want []string
	for round := 0; round < 3; round++ {
		for _, p := range []gossip.Packet{
			{Kind: gossip.PacketDigest, From: 10, Digest: empty},
			{Kind: gossip.PacketDigest, From: 10, Digest: digest},
			{Kind: gossip.PacketDelta, From: 10, Updates: delta},
		} {
			want = append(want, fmt.Sprint(p.Digest, p.Updates))
			rt.datagram(to, p, time.Millisecond, handle)
		}
		for i := range digest { // the sender reuses its buffers
			digest[i], delta[i] = gossip.DigestEntry{Origin: 99}, gossip.Update{Origin: 99}
		}
		s.RunFor(2 * time.Millisecond)
		for i := range digest {
			digest[i], delta[i] = gossip.DigestEntry{Origin: 10 + gossip.NodeID(i), Kind: uint8(1 + i), High: uint64(3 + 2*i)}, gossip.Update{Origin: 10 + gossip.NodeID(i), Seq: uint64(3 + 2*i), Kind: uint8(1 + i)}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %q, sent %q", got, want)
	}
	owners := map[any]string{&empty[:1][0]: "the sender's empty digest", &digest[0]: "the sender's digest", &delta[0]: "the sender's delta"}
	own := func(name string, base any) {
		if prev, ok := owners[base]; ok {
			t.Errorf("%s is also %s", name, prev)
		}
		owners[base] = name
	}
	for i, b := range rt.digests {
		own(fmt.Sprintf("free digest buffer %d", i), &b[:1][0])
	}
	for i, b := range rt.updates {
		own(fmt.Sprintf("free update buffer %d", i), &b[:1][0])
	}
	if len(rt.digests) != 1 || len(rt.updates) != 1 {
		t.Errorf("free lists hold %d digest and %d update buffers, want one each: the empty digest takes none", len(rt.digests), len(rt.updates))
	}
}
