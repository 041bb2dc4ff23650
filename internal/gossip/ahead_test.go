package gossip

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// updateID was the key of the map that held the updates ahead of a gap.
type updateID struct {
	origin NodeID
	seq    uint64
}

// refAhead is seen and record as they were over map[updateID]Update, for
// several origins at once: the model the sorted ahead slice is held to.
type refAhead struct {
	high  map[NodeID]uint64
	ahead map[updateID]Update
}

func (r *refAhead) seen(origin NodeID, seq uint64) bool {
	if seq <= r.high[origin] {
		return true
	}
	_, ok := r.ahead[updateID{origin, seq}]
	return ok
}

// record returns the updates that became contiguous, in order.
func (r *refAhead) record(u Update) (run []Update) {
	if u.Seq != r.high[u.Origin]+1 {
		r.ahead[updateID{u.Origin, u.Seq}] = u
		return nil
	}
	for ok := true; ok; u, ok = r.ahead[updateID{u.Origin, u.Seq + 1}] {
		delete(r.ahead, updateID{u.Origin, u.Seq})
		r.high[u.Origin] = u.Seq
		run = append(run, u)
	}
	return run
}

// TestAheadSliceMatchesMap interleaves the reordered, duplicated streams of
// four origins — one of them with seqs that never arrive, so what is beyond
// each hole stays ahead to the end — and after every arrival requires the
// slice to hold exactly the map's entries, in (origin, seq) order, the same
// answer from seen, the same high-water, and the run a closed gap released to
// be retained in order.
func TestAheadSliceMatchesMap(t *testing.T) {
	members := []NodeID{2, 3, 5, 8, 13}
	const self, gapped = NodeID(2), NodeID(8)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(Config{ID: self, Members: members, Retain: 64, Transport: nullTransport{}})
		ref := &refAhead{high: make(map[NodeID]uint64), ahead: make(map[updateID]Update)}
		// Each origin's stream arrives in its own (shuffled, duplicated) order;
		// the origins interleave at random.
		perOrigin := make(map[NodeID][]Update)
		total := 0
		for _, origin := range members[1:] {
			for _, seq := range arrivals(rng, 120, 16) {
				if origin == gapped && seq%37 == 0 {
					continue // lost for good
				}
				perOrigin[origin] = append(perOrigin[origin], Update{Origin: origin, Seq: seq, Kind: 1,
					Payload: binary.LittleEndian.AppendUint64([]byte{byte(origin)}, seq)})
				total++
			}
		}
		next := make(map[NodeID]int)
		for step := 0; step < total; step++ {
			origin := members[1+rng.Intn(len(members)-1)]
			for next[origin] == len(perOrigin[origin]) {
				origin = members[1+rng.Intn(len(members)-1)]
			}
			u := perOrigin[origin][next[origin]]
			next[origin]++

			want, got := ref.seen(u.Origin, u.Seq), n.seen(u.Origin, u.Seq)
			if got != want {
				t.Fatalf("seed %d step %d: seen(%d, %d) = %v, the map says %v", seed, step, u.Origin, u.Seq, got, want)
			}
			if got {
				continue
			}
			run := ref.record(u)
			n.record(u)
			st := &n.origins[n.rank(u.Origin)]
			if st.high != ref.high[u.Origin] {
				t.Fatalf("seed %d step %d: origin %d high %d, the map says %d", seed, step, u.Origin, st.high, ref.high[u.Origin])
			}
			for _, r := range run {
				if r.Seq >= st.floor(n.retain) && !slices.Equal(st.at(r.Seq).Payload, r.Payload) {
					t.Fatalf("seed %d step %d: retained (%d, %d) is %x, want %x", seed, step, r.Origin, r.Seq, st.at(r.Seq).Payload, r.Payload)
				}
			}
			if len(n.ahead) != len(ref.ahead) {
				t.Fatalf("seed %d step %d: %d ahead, the map holds %d", seed, step, len(n.ahead), len(ref.ahead))
			}
			for i, a := range n.ahead {
				if m, ok := ref.ahead[updateID{a.Origin, a.Seq}]; !ok || !slices.Equal(m.Payload, a.Payload) {
					t.Fatalf("seed %d step %d: ahead[%d] = (%d, %d) %x, the map has %v %x", seed, step, i, a.Origin, a.Seq, a.Payload, ok, m.Payload)
				}
				if i == 0 {
					continue
				}
				if b := n.ahead[i-1]; b.Origin > a.Origin || b.Origin == a.Origin && b.Seq >= a.Seq {
					t.Fatalf("seed %d step %d: ahead out of order at %d: (%d, %d) then (%d, %d)", seed, step, i, b.Origin, b.Seq, a.Origin, a.Seq)
				}
			}
		}
		for _, origin := range members[1:] {
			if origin != gapped && ref.high[origin] != 120 {
				t.Fatalf("seed %d: origin %d ended at high %d, want 120", seed, origin, ref.high[origin])
			}
		}
		if ref.high[gapped] != 36 || len(n.ahead) != 120-37-2 {
			t.Fatalf("seed %d: the gapped origin ended at high %d with %d ahead, want 36 and %d", seed, ref.high[gapped], len(n.ahead), 120-37-2)
		}
	}
}
