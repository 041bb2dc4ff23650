package gossip

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzPacket feeds arbitrary bytes to the packet decoder, both ways — copying,
// and borrowing into scratch that already held another packet: it must never
// panic or over-read, the two must return equal packets or equal errors, and
// whatever they accept must survive encode → decode unchanged, with the
// re-encoding a byte-level fixpoint. The live cluster runtime panics on a
// self-encoded frame that does not decode, so a codec asymmetry is a liveness
// matter, not a lost packet. The committed corpus holds the frames of
// cluster's TestDatagramCarriesEveryPacketKind.
//
// Whatever decodes is then handled by a member of a four-node group (10–13,
// the corpus frames' senders among them) that already holds updates of two
// origins, two kinds from one of them, and its own broadcast: the member has
// no place for an origin outside the membership, so a packet naming one — or
// sent by one — must be survived without a panic, leave the digest
// consistent (strictly (origin, kind)-ascending, members only, one entry per
// update held), draw no transmission addressed to a non-member, and deliver
// no update that is not newer than everything delivered or held before for
// its (origin, kind). The member is handed the borrowed decoding, and the
// frame is scribbled over once Handle returns: nothing the member held,
// delivered or sent may have been aliasing it.
func FuzzPacket(f *testing.F) {
	f.Add(EncodePacket(nil, Packet{Kind: PacketPush, From: 7, TTL: 3, Updates: []Update{{Origin: 7, Seq: 1, Kind: 2, Payload: []byte("vector")}}}))
	f.Add(EncodePacket(nil, Packet{Kind: PacketDigest, From: 1, Reply: true, Digest: []DigestEntry{{Origin: 2, Kind: 1, High: 9}}}))
	f.Add([]byte{})
	f.Add([]byte{codecVersion, PacketDelta, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		frame := bytes.Clone(data)
		borrowed := Packet{
			Updates: append(make([]Update, 0, 3), Update{Origin: 99, Seq: 99, Payload: []byte("stale")}),
			Digest:  append(make([]DigestEntry, 0, 2), DigestEntry{Origin: 99, Kind: 9, High: 99}),
		}
		berr := DecodeBorrowed(&borrowed, frame)
		if (err == nil) != (berr == nil) || (err != nil && err.Error() != berr.Error()) {
			t.Fatalf("DecodePacket says %v, DecodeBorrowed says %v", err, berr)
		}
		if err != nil {
			return
		}
		if !borrowed.Borrowed || p.Borrowed {
			t.Fatalf("Borrowed is %v on the borrowed decoding and %v on the copy", borrowed.Borrowed, p.Borrowed)
		}
		same := borrowed // but for the mark, and empty scratch where the copy has nil
		same.Borrowed = false
		if len(same.Updates) == 0 {
			same.Updates = nil
		}
		if len(same.Digest) == 0 {
			same.Digest = nil
		}
		if !reflect.DeepEqual(p, same) {
			t.Fatalf("the two decodings differ:\n  copied: %+v\nborrowed: %+v", p, borrowed)
		}
		enc := EncodePacket(nil, p)
		p2, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded packet failed: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("decode/encode not stable:\n first: %+v\nsecond: %+v", p, p2)
		}
		if enc2 := EncodePacket(nil, p2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixpoint:\n first: %x\nsecond: %x", enc, enc2)
		}

		members := []NodeID{10, 11, 12, 13}
		rec := &recorder{}
		var delivered []Update
		n := New(Config{ID: 10, Members: members, Seed: 1, Transport: rec, Deliver: func(u Update) { delivered = append(delivered, u) }})
		n.Broadcast(1, []byte("own"))
		n.Handle(Packet{Kind: PacketPush, From: 12, Updates: []Update{{Origin: 12, Seq: 1, Kind: 1}, {Origin: 12, Seq: 2, Kind: 2}, {Origin: 13, Seq: 3, Kind: 1}}})
		held := make(map[pair]uint64)
		for _, e := range n.appendDigest(nil) {
			held[pair{e.Origin, e.Kind}] = e.High
		}
		rec.sent, delivered = nil, nil
		n.Handle(borrowed)
		for _, u := range delivered {
			k := pair{u.Origin, u.Kind}
			if u.Seq <= held[k] {
				t.Fatalf("after %+v: delivered (%d, kind %d, seq %d), not newer than seq %d delivered or held before", p, u.Origin, u.Kind, u.Seq, held[k])
			}
			held[k] = u.Seq
		}
		kept := func() (all [][]byte) {
			for _, group := range [][]Update{n.newest, delivered} {
				for _, u := range group {
					all = append(all, u.Payload)
				}
			}
			for _, e := range rec.sent {
				for _, u := range e.p.Updates {
					all = append(all, u.Payload)
				}
			}
			return all
		}
		var before [][]byte
		for _, b := range kept() {
			before = append(before, bytes.Clone(b))
		}
		for i := range frame {
			frame[i] = ^frame[i]
		}
		for i, b := range kept() {
			if !bytes.Equal(b, before[i]) {
				t.Fatalf("after %+v, kept payload %d read %x and reads %x once the frame is reused", p, i, before[i], b)
			}
		}
		for _, e := range rec.sent {
			if !slices.Contains(members, e.to) {
				t.Fatalf("packet %+v drew a transmission to non-member %d: %+v", p, e.to, e.p)
			}
		}
		digest := n.appendDigest(nil)
		if len(digest) != len(held) || len(n.newest) != len(held) {
			t.Fatalf("after %+v: %d digest entries and %d updates held for %d (origin, kind) pairs seen", p, len(digest), len(n.newest), len(held))
		}
		for i, e := range digest {
			if !slices.Contains(members, e.Origin) {
				t.Fatalf("packet %+v put non-member %d in the digest", p, e.Origin)
			}
			if i > 0 && (digest[i-1].Origin > e.Origin || digest[i-1].Origin == e.Origin && digest[i-1].Kind >= e.Kind) {
				t.Fatalf("after %+v the digest is out of (origin, kind) order: %v", p, digest)
			}
			if e.High != held[pair{e.Origin, e.Kind}] {
				t.Fatalf("after %+v the digest names (%d, kind %d) at %d, the newest held or delivered is %d", p, e.Origin, e.Kind, e.High, held[pair{e.Origin, e.Kind}])
			}
		}
	})
}
