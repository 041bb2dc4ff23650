package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
)

// mergePassedAT is the delivery path's merge on its own: the raises a payload
// makes to vec, applied — or, for a payload readPassedAT rejects, nothing.
func mergePassedAT(b []byte, comps slots, vec []uint64) (epoch uint64, from gmdcd.ComponentID, err error) {
	epoch, from, raises, err := readPassedAT(b, comps, vec, nil)
	if err == nil {
		applyRaises(vec, raises)
	}
	return epoch, from, err
}

// modelDecodePassedAT is the passed-AT decoder the one-pass reader replaced:
// it merges a payload's entries into validated (one entry per slot, cleared
// by the caller) by max, finding each slot with a cursor over the sorted
// components, and a search for an entry at or behind the cursor. On an error
// validated holds a partial merge to discard.
func modelDecodePassedAT(b []byte, ids []gmdcd.ComponentID, validated []uint64) (epoch uint64, from gmdcd.ComponentID, err error) {
	if len(b) < 12 {
		return 0, 0, fmt.Errorf("cluster: passed-AT payload truncated (%d bytes)", len(b))
	}
	epoch = binary.LittleEndian.Uint64(b)
	from = gmdcd.ComponentID(binary.LittleEndian.Uint16(b[8:]))
	count := int(binary.LittleEndian.Uint16(b[10:]))
	if len(b) != 12+10*count {
		return 0, 0, fmt.Errorf("cluster: passed-AT payload is %d bytes, want %d", len(b), 12+10*count)
	}
	next := 0 // the cursor: ids[next:] follows the previous entry's slot
	for off := 12; off < len(b); off += 10 {
		c := gmdcd.ComponentID(binary.LittleEndian.Uint16(b[off:]))
		slot := -1
		if next > 0 && c <= ids[next-1] {
			if i, ok := slices.BinarySearch(ids, c); ok {
				slot = i
			}
		} else {
			for next < len(ids) && ids[next] < c {
				next++
			}
			if next < len(ids) && ids[next] == c {
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

// modelValidate is the delivery the reader replaced: clear the node's scratch
// vector, decode the payload into it, and on success merge it into valid.
func modelValidate(b []byte, ids []gmdcd.ComponentID, valid []uint64) ([]uint64, error) {
	scratch := make([]uint64, len(ids))
	want := slices.Clone(valid)
	_, _, err := modelDecodePassedAT(b, ids, scratch)
	if err == nil {
		mergeVec(want, scratch)
	}
	return want, err
}

// randomPassedAT builds a payload over comps the way a test of the reader
// wants it: in slot order or shuffled, entries near valid's (so some raise
// and some do not), zero entries, duplicates behind the cursor, now and then
// a foreign component, and now and then cut short or lengthened.
func randomPassedAT(rng *rand.Rand, comps slots, valid []uint64) []byte {
	entries := make([][2]uint64, rng.Intn(2*len(comps.ids)+1))
	for i := range entries {
		slot := rng.Intn(len(comps.ids))
		c := uint64(comps.ids[slot])
		var sn uint64
		switch rng.Intn(4) {
		case 0: // zero: never a raise
		case 1:
			sn = valid[slot] - min(valid[slot], uint64(rng.Intn(3)))
		default:
			sn = valid[slot] + uint64(rng.Intn(5))
		}
		if rng.Intn(24) == 0 {
			c = uint64(rng.Intn(int(comps.ids[len(comps.ids)-1]) + 3)) // often foreign
		}
		entries[i] = [2]uint64{c, sn}
	}
	if rng.Intn(2) == 0 {
		slices.SortStableFunc(entries, func(a, b [2]uint64) int { return int(a[0]) - int(b[0]) })
	}
	b := passedATBytes(0, comps.ids[0], entries) // a new cluster's epoch
	switch rng.Intn(16) {
	case 0:
		b = b[:rng.Intn(len(b))]
	case 1:
		b = append(b, byte(rng.Intn(256)))
	}
	return b
}

// TestPassedATReaderMatchesParent holds the one-pass reader to the delivery
// it replaced. Hand cases, then random valid vectors and payloads: the raises
// readPassedAT collects, applied, equal the model's merge, or the two reject
// the payload with the same error; the reader leaves valid as it found it.
func TestPassedATReaderMatchesParent(t *testing.T) {
	check := func(name string, comps slots, valid []uint64, b []byte) {
		t.Helper()
		want, wantErr := modelValidate(b, comps.ids, valid)
		before := slices.Clone(valid)
		_, _, raises, err := readPassedAT(b, comps, valid, nil)
		if !slices.Equal(valid, before) {
			t.Fatalf("%s: the reader wrote valid: %v, was %v", name, valid, before)
		}
		got := slices.Clone(valid)
		if err == nil {
			applyRaises(got, raises)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("%s: payload %x over %v, valid %v: reader gives %v (err %v), model %v (err %v)",
				name, b, comps.ids, before, got, err, want, wantErr)
		}
	}
	comps := newSlots(2, 4, 7, 11, 20)
	for _, tc := range []struct {
		name    string
		entries [][2]uint64
	}{
		{"in order, dense", [][2]uint64{{2, 1}, {4, 2}, {7, 3}, {11, 4}, {20, 5}}},
		{"in order, sparse", [][2]uint64{{4, 2}, {20, 5}}},
		{"out of order", [][2]uint64{{11, 4}, {2, 1}, {20, 5}, {7, 3}}},
		{"adjacent duplicate", [][2]uint64{{4, 9}, {4, 3}, {7, 1}}},
		{"duplicate behind the cursor", [][2]uint64{{2, 1}, {11, 4}, {2, 8}, {20, 5}}},
		{"zero entries", [][2]uint64{{2, 0}, {4, 0}}},
		{"unknown first", [][2]uint64{{3, 1}, {4, 2}}},
		{"unknown between slots", [][2]uint64{{2, 1}, {5, 2}, {7, 3}}},
		{"unknown behind the cursor", [][2]uint64{{7, 1}, {20, 2}, {3, 3}}},
		{"unknown past the last slot", [][2]uint64{{11, 1}, {21, 2}}},
	} {
		for _, valid := range [][]uint64{make([]uint64, 5), {0, 3, 3, 3, 0}} {
			check(tc.name, comps, valid, passedATBytes(5, 1, tc.entries))
		}
	}
	check("truncated", comps, make([]uint64, 5), passedATBytes(5, 1, [][2]uint64{{2, 1}})[:15])
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := make([]gmdcd.ComponentID, 1+rng.Intn(20))
		for i, id := range rng.Perm(64)[:len(ids)] {
			ids[i] = gmdcd.ComponentID(id)
		}
		comps := newSlots(ids...)
		valid := make([]uint64, len(ids))
		for i := range valid {
			if rng.Intn(3) > 0 {
				valid[i] = uint64(rng.Intn(8))
			}
		}
		check(fmt.Sprintf("seed %d", seed), comps, valid, randomPassedAT(rng, comps, valid))
	}
}

// TestRejectedPassedATChangesNothing delivers random payloads to a lockstep
// shadow with suppressed messages in its log and a dirty active: an accepted
// payload leaves valid at the model's merge and the log cut at the new
// horizon, and a rejected one leaves valid, the log, the dirty bit and the
// validation count as they were.
func TestRejectedPassedATChangesNothing(t *testing.T) {
	s, err := NewSim(ringConfig(7, 3, 3, 100, 50))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rejected, accepted := 0, 0
	for i := 0; i < 2000; i++ {
		n := s.nodes[s.asg.Shadow[gmdcd.ComponentID(1+rng.Intn(3))]]
		if i%2 == 0 {
			n = s.nodes[s.asg.Active[gmdcd.ComponentID(1+rng.Intn(7))]]
		}
		for slot := range n.valid {
			n.valid[slot] = uint64(rng.Intn(6))
			n.influence[slot] = uint64(rng.Intn(6))
		}
		n.ownSN = uint64(rng.Intn(8))
		n.log = n.log[:0]
		for sn := uint64(1); sn <= 6; sn++ {
			n.log = append(n.log, Msg{SelfSN: sn, Seq: sn})
		}
		valid, log, dirty, count := slices.Clone(n.valid), selfSNs(n.log), n.dirty(), s.cnt.validations.Load()
		b := randomPassedAT(rng, s.comps, n.valid)
		want, wantErr := modelValidate(b, s.comps.ids, n.valid)
		s.onGossipDeliver(n, gossip.Update{Kind: updPassedAT, Payload: b})
		if wantErr != nil {
			rejected++
			if !slices.Equal(n.valid, valid) || !slices.Equal(selfSNs(n.log), log) || n.dirty() != dirty || s.cnt.validations.Load() != count {
				t.Fatalf("case %d: rejected payload %x (%v) changed node %d: valid %v → %v, log %d → %d entries, dirty %v → %v",
					i, b, wantErr, n.id, valid, n.valid, len(log), len(n.log), dirty, n.dirty())
			}
			continue
		}
		accepted++
		if !slices.Equal(n.valid, want) {
			t.Fatalf("case %d: payload %x took node %d's valid %v to %v, the model's merge is %v", i, b, n.id, valid, n.valid, want)
		}
		if n.shadow {
			log = slices.DeleteFunc(log, func(sn uint64) bool { return sn <= want[n.slot] })
		}
		if !slices.Equal(selfSNs(n.log), log) || s.cnt.validations.Load() != count+1 {
			t.Fatalf("case %d: node %d kept %d log entries (want %d), validations %d (want %d)", i, n.id, len(n.log), len(log), s.cnt.validations.Load(), count+1)
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("%d payloads rejected and %d accepted: the workload must produce both", rejected, accepted)
	}
}

// selfSNs lists a log's own-stream positions.
func selfSNs(log []Msg) []uint64 {
	sns := make([]uint64, len(log))
	for i, m := range log {
		sns[i] = m.SelfSN
	}
	return sns
}
