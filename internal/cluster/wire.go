package cluster

import (
	"encoding/binary"
	"fmt"

	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// Gossip update kinds the cluster disseminates.
const (
	// updPassedAT carries a passed acceptance test's validated influence
	// vector (the generalized passed-AT broadcast).
	updPassedAT uint8 = iota + 1
	// updResync carries a timer-resynchronization beacon: every receiver
	// resynchronizes its local clock on delivery.
	updResync
)

// Passed-AT payload layout (little-endian):
//
//	u64 epoch | u16 origin component | u16 count | count × (u16 comp, u64 sn)
//
// entries sorted by component (slot order; absent slots have none) for
// byte-identical encodings across nodes. The epoch scopes the validation:
// anti-entropy can redeliver a vector long after a software recovery flushed
// the stream positions it covers, and a receiver must discard those instead
// of resurrecting confidence in a demoted stream.
func encodePassedAT(epoch uint64, from gmdcd.ComponentID, comps slots, validated []uint64) []byte {
	count := 0
	for _, sn := range validated {
		if sn != 0 {
			count++
		}
	}
	buf := make([]byte, 0, 12+10*count)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(from))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(count))
	for slot, sn := range validated {
		if sn != 0 {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(comps.ids[slot]))
			buf = binary.LittleEndian.AppendUint64(buf, sn)
		}
	}
	return buf
}

// raise is one passed-AT entry above what the receiver has validated: valid
// at slot goes up to sn.
type raise struct {
	slot int
	sn   uint64
}

// readPassedAT checks a whole passed-AT payload against the receiver's valid
// vector, reading valid only, and appends to raises the entries that would
// raise it. An entry naming a component outside the topology has no slot and
// makes the payload an error: the caller applies nothing of it. The payload
// may name a component twice (each entry above valid is a raise, and applied
// by max the higher wins in either order), out of slot order, or at zero
// (never a raise).
func readPassedAT(b []byte, comps slots, valid []uint64, raises []raise) (epoch uint64, from gmdcd.ComponentID, _ []raise, err error) {
	if len(b) < 12 {
		return 0, 0, raises, fmt.Errorf("cluster: passed-AT payload truncated (%d bytes)", len(b))
	}
	epoch = binary.LittleEndian.Uint64(b)
	from = gmdcd.ComponentID(binary.LittleEndian.Uint16(b[8:]))
	count := int(binary.LittleEndian.Uint16(b[10:]))
	if len(b) != 12+10*count {
		return 0, 0, raises, fmt.Errorf("cluster: passed-AT payload is %d bytes, want %d", len(b), 12+10*count)
	}
	for off := 12; off < len(b); off += 10 {
		c := gmdcd.ComponentID(binary.LittleEndian.Uint16(b[off:]))
		slot := comps.of(c)
		if slot < 0 {
			return 0, 0, raises, fmt.Errorf("cluster: passed-AT entry names %v, which is not in the topology", c)
		}
		if sn := binary.LittleEndian.Uint64(b[off+2:]); sn > valid[slot] {
			raises = append(raises, raise{slot, sn})
		}
	}
	return epoch, from, raises, nil
}

// applyRaises raises vec by the raises readPassedAT collected against it.
func applyRaises(vec []uint64, raises []raise) {
	for _, r := range raises {
		vec[r.slot] = max(vec[r.slot], r.sn)
	}
}

// Resync payload layout: u64 epoch (beacons from a flushed epoch still
// resynchronize — clock alignment is orthogonal to stream validity — but the
// epoch keeps the wire format uniform and diagnosable).
func encodeResync(epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, epoch)
}

func decodeResync(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("cluster: resync payload is %d bytes, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}
