//go:build !race

package gossip

import "testing"

// Under the race detector sync.Pool drops a quarter of what it is given, so
// the digest and delta buffers' allocation count means nothing there.

// encoder is a Copier that does what the live runtime does with a packet:
// it encodes it, into one buffer it reuses.
type encoder struct {
	frame []byte
	sent  int
}

func (e *encoder) Send(_ NodeID, p Packet) {
	e.frame = EncodePacket(e.frame[:0], p)
	e.sent++
}

func (*encoder) CopiesOnSend() {}

// TestWarmMemberAllocatesNothing: once a member has staged each kind of
// packet, its stages and their buffers are recycled — a broadcast, a fresh
// push relayed to fanout peers, an anti-entropy tick and a digest answered
// with a delta and a reply digest each cost no allocation, from the call to
// the transport's encoding.
func TestWarmMemberAllocatesNothing(t *testing.T) {
	members := make([]NodeID, 10)
	for i := range members {
		members[i] = NodeID(i)
	}
	tr := &encoder{}
	delivered := 0
	n := New(Config{ID: 0, Members: members, Seed: 1, Transport: tr, Deliver: func(Update) { delivered++ }})
	payload := []byte("a validated influence vector")
	for origin := NodeID(1); origin < 10; origin++ {
		for kind := uint8(1); kind <= 2; kind++ {
			n.Handle(Packet{Kind: PacketPush, From: origin, Updates: []Update{{Origin: origin, Seq: 1, Kind: kind, Payload: payload}}})
		}
	}
	n.Broadcast(1, payload)

	relay := Packet{Kind: PacketPush, From: 5, TTL: 3, Updates: []Update{{Origin: 5, Seq: 1, Kind: 1, Payload: payload}}}
	// Member 3 holds origin 5's kind 1 one seq ahead, and nothing else: the
	// answer is a delta of every other pair and, the digest not being a
	// reply, this member's own digest.
	ahead := Packet{Kind: PacketDigest, From: 3, Digest: []DigestEntry{{Origin: 5, Kind: 1, High: 1 << 40}}}
	for _, tc := range []struct {
		name  string
		sends int // packets one call hands to the transport
		call  func()
	}{
		{"a broadcast", n.fanout, func() { n.Broadcast(1, payload) }},
		{"a fresh push relayed", n.fanout, func() {
			relay.Updates[0].Seq++
			n.Handle(relay)
		}},
		{"a tick", 1, n.Tick},
		{"a digest answered with a delta and a reply digest", 2, func() { n.Handle(ahead) }},
	} {
		tc.call() // warms what this kind of call stages
		sent, deliveries := tr.sent, delivered
		if a := testing.AllocsPerRun(100, tc.call); a != 0 {
			t.Errorf("%s allocates %.2f times once warm, want 0", tc.name, a)
		}
		if got := tr.sent - sent; got != 101*tc.sends {
			t.Errorf("%s: %d packets sent over 101 calls, want %d", tc.name, got, 101*tc.sends)
		}
		if tc.name == "a fresh push relayed" && delivered-deliveries != 101 {
			t.Errorf("%s: %d deliveries over 101 calls, want 101", tc.name, delivered-deliveries)
		}
	}
}
