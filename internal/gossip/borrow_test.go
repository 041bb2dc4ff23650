package gossip

import "testing"

// duplicateFrame returns a member that has already seen the one update of a
// push, the push's frame, and scratch to decode it into.
func duplicateFrame() (n *Node, frame []byte, scratch *Packet) {
	members := make([]NodeID, 10)
	for i := range members {
		members[i] = NodeID(i)
	}
	n = New(Config{ID: 0, Members: members, Seed: 1, Transport: nullTransport{}})
	push := Packet{Kind: PacketPush, From: 5, TTL: 3, Updates: []Update{{Origin: 5, Seq: 1, Kind: 1, Payload: []byte("a validated influence vector")}}}
	n.Handle(push)
	return n, EncodePacket(nil, push), new(Packet)
}

// TestDuplicatePushFrameAllocatesNothing: three of four update copies a live
// member receives are duplicates, and one costs it a decode in place and a
// look at (origin, seq) — no allocation, from the frame to the discard.
func TestDuplicatePushFrameAllocatesNothing(t *testing.T) {
	n, frame, scratch := duplicateFrame()
	handle := func() {
		if err := DecodeBorrowed(scratch, frame); err != nil {
			t.Fatal(err)
		}
		n.Handle(*scratch)
	}
	handle() // sizes the scratch
	if a := testing.AllocsPerRun(100, handle); a != 0 {
		t.Errorf("decoding and handling an already-seen push frame allocates %.0f times, want 0", a)
	}
	if st := n.Stats(); st.Duplicates != 102 || st.Delivered != 1 {
		t.Errorf("duplicates = %d, delivered = %d, want 102 and 1", st.Duplicates, st.Delivered)
	}
}

// BenchmarkDuplicatePushFrame is the same path under check.sh's alloc gate.
func BenchmarkDuplicatePushFrame(b *testing.B) {
	n, frame, scratch := duplicateFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeBorrowed(scratch, frame); err != nil {
			b.Fatal(err)
		}
		n.Handle(*scratch)
	}
}
