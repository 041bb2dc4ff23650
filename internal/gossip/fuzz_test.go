package gossip

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzPacket feeds arbitrary bytes to the packet decoder: it must never panic
// or over-read, and whatever it accepts must survive encode → decode
// unchanged, with the re-encoding a byte-level fixpoint. The live cluster
// runtime panics on a self-encoded frame that does not decode, so a codec
// asymmetry is a liveness matter, not a lost packet. The committed corpus
// holds the frames of cluster's TestDatagramCarriesEveryPacketKind.
func FuzzPacket(f *testing.F) {
	f.Add(EncodePacket(nil, Packet{Kind: PacketPush, From: 7, TTL: 3, Updates: []Update{{Origin: 7, Seq: 1, Kind: 2, Payload: []byte("vector")}}}))
	f.Add(EncodePacket(nil, Packet{Kind: PacketDigest, From: 1, Reply: true, Digest: []DigestEntry{{Origin: 2, High: 9}}}))
	f.Add([]byte{})
	f.Add([]byte{codecVersion, PacketDelta, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		if err != nil {
			return
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
	})
}
