package gossip

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Wire format (little-endian), version-prefixed like the msg codec:
//
//	byte    version (2)
//	byte    kind (push | digest | delta)
//	uint16  from
//	byte    ttl
//	byte    flags (bit0: reply)
//	uint16  nUpdates
//	nUpdates × ( uint16 origin | uint64 seq | byte kind | uint32 len | payload )
//	uint16  nDigest
//	nDigest × ( uint16 origin | byte kind | uint64 high )
//
// A digest entry carries the kind because a member holds the newest update
// per (origin, kind) (version 2). The codec exists so gossip packets have a
// stable on-the-wire shape the live transport can carry and the tests can
// hold to a fixpoint; the simulator passes packets by value.

const codecVersion = 2

// maxPayload bounds one update payload on decode (corruption guard).
const maxPayload = 1 << 20

// Least encoded sizes of an update and a digest entry: a decoded count sizes
// an allocation only as far as the unread bytes could hold that many.
const (
	minUpdateLen   = 2 + 8 + 1 + 4
	digestEntryLen = 2 + 1 + 8
)

// EncodePacket appends p's wire encoding to buf and returns the result.
func EncodePacket(buf []byte, p Packet) []byte {
	buf = append(buf, codecVersion, p.Kind)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.From))
	var flags byte
	if p.Reply {
		flags |= 1
	}
	buf = append(buf, p.TTL, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Updates)))
	for _, u := range p.Updates {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(u.Origin))
		buf = binary.LittleEndian.AppendUint64(buf, u.Seq)
		buf = append(buf, u.Kind)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.Payload)))
		buf = append(buf, u.Payload...)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Digest)))
	for _, e := range p.Digest {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Origin))
		buf = append(buf, e.Kind)
		buf = binary.LittleEndian.AppendUint64(buf, e.High)
	}
	return buf
}

// DecodePacket parses one packet from data, which must contain exactly one
// encoded packet. The result shares nothing with data.
func DecodePacket(data []byte) (Packet, error) {
	var p Packet
	err := DecodeBorrowed(&p, data)
	p.Borrowed = false
	for i := range p.Updates {
		p.Updates[i].Payload = bytes.Clone(p.Updates[i].Payload)
	}
	return p, err
}

// DecodeBorrowed parses data as DecodePacket does, into *p and without
// copying: the payloads alias data, and Updates and Digest are decoded into
// the slices *p already holds (grown only when the frame names more entries
// than they have room for), so a caller that keeps p across frames decodes
// without allocating. The packet is marked Borrowed and is good for as long
// as data is left alone; whatever outlives that must be copied out of it,
// which is what Node.Handle does for the updates it keeps.
func DecodeBorrowed(p *Packet, data []byte) error {
	*p = Packet{Updates: p.Updates[:0], Digest: p.Digest[:0], Borrowed: true}
	r := reader{data: data}
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver != codecVersion {
		return fmt.Errorf("gossip: unknown codec version %d", ver)
	}
	if p.Kind, err = r.byte(); err != nil {
		return err
	}
	if p.Kind != PacketPush && p.Kind != PacketDigest && p.Kind != PacketDelta {
		return fmt.Errorf("gossip: unknown packet kind %d", p.Kind)
	}
	from, err := r.u16()
	if err != nil {
		return err
	}
	p.From = NodeID(from)
	if p.TTL, err = r.byte(); err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	p.Reply = flags&1 != 0
	nu, err := r.u16()
	if err != nil {
		return err
	}
	if room := min(int(nu), (len(data)-r.pos)/minUpdateLen); room > cap(p.Updates) {
		p.Updates = make([]Update, 0, room)
	}
	for i := 0; i < int(nu); i++ {
		var u Update
		origin, err := r.u16()
		if err != nil {
			return err
		}
		u.Origin = NodeID(origin)
		if u.Seq, err = r.u64(); err != nil {
			return err
		}
		if u.Kind, err = r.byte(); err != nil {
			return err
		}
		n, err := r.u32()
		if err != nil {
			return err
		}
		if n > maxPayload {
			return fmt.Errorf("gossip: payload length %d exceeds cap", n)
		}
		if u.Payload, err = r.bytes(int(n)); err != nil {
			return err
		}
		p.Updates = append(p.Updates, u)
	}
	nd, err := r.u16()
	if err != nil {
		return err
	}
	if room := min(int(nd), (len(data)-r.pos)/digestEntryLen); room > cap(p.Digest) {
		p.Digest = make([]DigestEntry, 0, room)
	}
	for i := 0; i < int(nd); i++ {
		var e DigestEntry
		origin, err := r.u16()
		if err != nil {
			return err
		}
		e.Origin = NodeID(origin)
		if e.Kind, err = r.byte(); err != nil {
			return err
		}
		if e.High, err = r.u64(); err != nil {
			return err
		}
		p.Digest = append(p.Digest, e)
	}
	if r.pos != len(data) {
		return fmt.Errorf("gossip: %d trailing bytes after packet", len(data)-r.pos)
	}
	return nil
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.data) {
		return fmt.Errorf("gossip: truncated packet at offset %d", r.pos)
	}
	return nil
}

func (r *reader) byte() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v, nil
}

// bytes returns the next n bytes of the frame itself, capacity clipped so an
// append to them cannot reach what follows.
func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return out, nil
}
