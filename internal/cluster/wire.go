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
			buf = binary.LittleEndian.AppendUint16(buf, uint16(comps[slot]))
			buf = binary.LittleEndian.AppendUint64(buf, sn)
		}
	}
	return buf
}

// decodePassedAT merges a payload's entries into validated (one entry per
// slot of comps, cleared by the caller) by max, so a duplicate entry cannot
// lower an earlier one. An entry naming a component outside the topology has
// no slot and is an error; validated then holds a partial merge to discard.
// encodePassedAT writes entries in slot order, so a cursor walking comps
// forward finds each slot without a search; an entry at or behind the cursor
// (out of order, or a duplicate) is looked up instead.
func decodePassedAT(b []byte, comps slots, validated []uint64) (epoch uint64, from gmdcd.ComponentID, err error) {
	if len(b) < 12 {
		return 0, 0, fmt.Errorf("cluster: passed-AT payload truncated (%d bytes)", len(b))
	}
	epoch = binary.LittleEndian.Uint64(b)
	from = gmdcd.ComponentID(binary.LittleEndian.Uint16(b[8:]))
	count := int(binary.LittleEndian.Uint16(b[10:]))
	if len(b) != 12+10*count {
		return 0, 0, fmt.Errorf("cluster: passed-AT payload is %d bytes, want %d", len(b), 12+10*count)
	}
	next := 0 // the cursor: comps[next:] follows the previous entry's slot
	for off := 12; off < len(b); off += 10 {
		c := gmdcd.ComponentID(binary.LittleEndian.Uint16(b[off:]))
		slot := -1
		if next > 0 && c <= comps[next-1] {
			slot = comps.of(c)
		} else {
			for next < len(comps) && comps[next] < c {
				next++
			}
			if next < len(comps) && comps[next] == c {
				slot = next
				next++
			}
		}
		if slot < 0 {
			return 0, 0, fmt.Errorf("cluster: passed-AT entry names %v, which is not in the topology", c)
		}
		validated[slot] = max(validated[slot], binary.LittleEndian.Uint64(b[off+2:]))
	}
	return epoch, from, nil
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
