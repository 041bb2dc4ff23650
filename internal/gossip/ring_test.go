package gossip

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refOrigin is the retention originState had before the ring: every seen
// update in one map keyed by seq, the contiguous run and the ones ahead of it
// alike. It is the model the ring is held to.
type refOrigin struct {
	high, floor uint64
	updates     map[uint64]Update
}

func (r *refOrigin) seen(seq uint64) bool {
	if seq <= r.high {
		return true
	}
	_, ok := r.updates[seq]
	return ok
}

func (r *refOrigin) record(u Update, retain int) {
	r.updates[u.Seq] = u
	for {
		if _, ok := r.updates[r.high+1]; !ok {
			break
		}
		r.high++
	}
	for r.high > uint64(retain) && r.floor <= r.high-uint64(retain) {
		delete(r.updates, r.floor)
		r.floor++
	}
}

// supply is repairLocked's scan for one origin: retained updates from seq on.
func (r *refOrigin) supply(from uint64) []Update {
	var delta []Update
	for seq := from; seq <= r.high && len(delta) < maxDeltaUpdates; seq++ {
		if u, ok := r.updates[seq]; ok {
			delta = append(delta, u)
		}
	}
	return delta
}

// arrivals orders seqs 1..total the way a lossy epidemic delivers them:
// locally shuffled, some held back a long way, whole bursts arriving far
// ahead of everything before them, and one copy in four duplicated later.
func arrivals(rng *rand.Rand, total, retain int) []uint64 {
	type arrival struct {
		seq uint64
		at  int
	}
	order := make([]arrival, 0, total+total/4)
	far := 2*retain + 40
	for seq := 1; seq <= total; seq++ {
		at := seq + rng.Intn(8)
		if rng.Intn(20) == 0 {
			at += rng.Intn(far)
		}
		order = append(order, arrival{uint64(seq), at})
	}
	for burst := 0; burst < 6; burst++ {
		start := rng.Intn(total)
		for i := start; i < min(total, start+1+rng.Intn(12)); i++ {
			order[i].at = start - far
		}
	}
	for i := 0; i < total/4; i++ {
		dup := order[rng.Intn(total)]
		order = append(order, arrival{dup.seq, dup.at + rng.Intn(far)})
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	seqs := make([]uint64, len(order))
	for i, a := range order {
		seqs[i] = a.seq
	}
	return seqs
}

type nullTransport struct{}

func (nullTransport) Send(NodeID, Packet) {}

func TestRingMatchesMapRetention(t *testing.T) {
	const origin, asker NodeID = 3, 1
	for _, retain := range []int{1, 3, 8, 4096} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retain)))
			n := New(Config{ID: 0, Members: []NodeID{0, asker, origin}, Retain: retain, Transport: nullTransport{}})
			ref := &refOrigin{floor: 1, updates: make(map[uint64]Update)}
			total := 3*retain + 50
			for step, seq := range arrivals(rng, total, retain) {
				u := Update{Origin: origin, Seq: seq, Kind: 1, Payload: binary.LittleEndian.AppendUint64(nil, seq)}
				want, got := ref.seen(seq), n.seen(origin, seq)
				if got != want {
					t.Fatalf("step %d: seen(%d) = %v, map says %v", step, seq, got, want)
				}
				if !got {
					ref.record(u, retain)
					n.record(u)
				}
				st := &n.origins[n.rank(origin)]
				floor := st.floor(n.retain)
				if st.high != ref.high || floor != ref.floor {
					t.Fatalf("step %d (seq %d): [floor, high] = [%d, %d], map says [%d, %d]", step, seq, floor, st.high, ref.floor, ref.high)
				}
				span := int64(st.high + 1 - floor) // retained below the high-water
				if held := int(span) + len(n.ahead); held != len(ref.updates) {
					t.Fatalf("step %d: %d updates held (%d ahead), map holds %d", step, held, len(n.ahead), len(ref.updates))
				}
				if len(st.ring) > 4 && len(st.ring) >= 2*retain {
					t.Fatalf("step %d: ring grew to %d slots for Retain %d", step, len(st.ring), retain)
				}
				for _, probe := range []uint64{floor, st.high, floor + uint64(rng.Int63n(span+1))} {
					if probe >= floor && probe <= st.high && !reflect.DeepEqual(*st.at(probe), ref.updates[probe]) {
						t.Fatalf("step %d: retained(%d) = %+v, map holds %+v", step, probe, *st.at(probe), ref.updates[probe])
					}
				}
				// A digest that knows the origin up to somewhere around the
				// retained window, and one that has never heard of it.
				knows := ref.floor - min(ref.floor, uint64(rng.Intn(300))) + uint64(rng.Int63n(span+3))
				for _, c := range []struct {
					digest []DigestEntry
					want   []Update
				}{
					{[]DigestEntry{{Origin: origin, High: knows}}, ref.supply(knows + 1)},
					{nil, ref.supply(ref.floor)},
				} {
					var delta []Update
					for _, e := range n.repairLocked(Packet{Kind: PacketDigest, From: asker, Digest: c.digest, Reply: true}) {
						delta = append(delta, e.p.Updates...)
					}
					if !reflect.DeepEqual(delta, c.want) {
						t.Fatalf("step %d: delta for digest %v has %d updates, map supplies %d\n ring: %v\n  map: %v", step, c.digest, len(delta), len(c.want), seqsOf(delta), seqsOf(c.want))
					}
				}
			}
			if ref.high != uint64(total) || len(n.ahead) != 0 {
				t.Fatalf("run ended at high %d with %d ahead, want %d and 0", ref.high, len(n.ahead), total)
			}
		})
	}
}

func seqsOf(us []Update) []uint64 {
	out := make([]uint64, len(us))
	for i, u := range us {
		out[i] = u.Seq
	}
	return out
}

// Simulator transcripts depend on the order pushLocked draws peers in: it
// must stay rand.Perm's.
func TestPushDrawsRandPermSequence(t *testing.T) {
	members := make([]NodeID, 12)
	for i := range members {
		members[i] = NodeID(i)
	}
	n := New(Config{ID: 4, Members: members, Seed: 9, Transport: nullTransport{}})
	twin := rand.New(rand.NewSource(mixSeed(9, 4)))
	for i := 0; i < 50; i++ {
		n.pushLocked(nil, Update{Origin: 4, Seq: uint64(i + 1)}, 2, 4)
		if want := twin.Perm(len(n.peers)); !slices.Equal(n.perm, want) {
			t.Fatalf("push %d drew %v, rand.Perm draws %v", i, n.perm, want)
		}
	}
}

func TestHotPathAllocations(t *testing.T) {
	members := make([]NodeID, 10)
	for i := range members {
		members[i] = NodeID(i)
	}
	n := New(Config{ID: 0, Members: members, Seed: 1, Transport: nullTransport{}})
	u := Update{Origin: 5, Seq: 1, Kind: 1, Payload: []byte("vector")}
	push := Packet{Kind: PacketPush, From: 5, TTL: 3, Updates: []Update{u}}
	n.Handle(push)
	if a := testing.AllocsPerRun(100, func() { n.Handle(push) }); a != 0 {
		t.Errorf("Handle of an already-seen push allocates %.0f times, want 0", a)
	}
	var out []envelope
	if a := testing.AllocsPerRun(100, func() { out = n.pushLocked(nil, u, 3, 5) }); a > 2 {
		t.Errorf("pushLocked allocates %.0f times, want ≤ 2 (the envelopes and their shared update)", a)
	}
	if len(out) != n.fanout {
		t.Fatalf("pushLocked staged %d envelopes, want %d", len(out), n.fanout)
	}
}
