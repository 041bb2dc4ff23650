package gossip

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// chaosNet is an in-test transport that loses, duplicates, reorders and
// partitions: Send queues a packet (or drops it, or queues it twice), and step
// delivers a uniformly chosen queued packet — so any packet may overtake any
// other. It holds its senders to the borrow contract: it queues a copy, and
// before delivering anything it scribbles over every update and digest entry
// of the packets it was lent, so a member that kept one of its own staged
// slices reads garbage.
type chaosNet struct {
	rng   *rand.Rand
	nodes map[NodeID]*Node
	queue []envelope
	lent  []Packet // handed to Send since the last step, as handed
	// lossy enables drops and duplicates; cut reports a partitioned pair.
	lossy bool
	cut   func(a, b NodeID) bool
}

func (*chaosNet) CopiesOnSend() {}

func (c *chaosNet) Send(to NodeID, p Packet) {
	c.lent = append(c.lent, p)
	p = clonePacket(p)
	if c.lossy {
		if c.cut(p.From, to) || c.rng.Intn(10) == 0 {
			return
		}
		if c.rng.Intn(10) == 0 {
			c.queue = append(c.queue, envelope{to: to, p: p})
		}
	}
	c.queue = append(c.queue, envelope{to: to, p: p})
}

// step delivers one queued packet, chosen at random, once the packets lent so
// far are garbage.
func (c *chaosNet) step() {
	for _, p := range c.lent {
		for i := range p.Updates {
			p.Updates[i] = Update{Origin: 0xffff, Seq: ^uint64(0), Kind: 0xff}
		}
		for i := range p.Digest {
			p.Digest[i] = DigestEntry{Origin: 0xffff, Kind: 0xff, High: ^uint64(0)}
		}
	}
	c.lent = c.lent[:0]
	i := c.rng.Intn(len(c.queue))
	e := c.queue[i]
	c.queue[i] = c.queue[len(c.queue)-1]
	c.queue = c.queue[:len(c.queue)-1]
	c.nodes[e.to].Handle(e.p)
}

func (c *chaosNet) drain() {
	for len(c.queue) > 0 {
		c.step()
	}
}

// vecLen is the length of the vectors the oracle's members broadcast.
const vecLen = 5

func encodeVec(v []uint64) []byte {
	var b []byte
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// mergeInto raises dst to the vector a payload encodes, entry by entry.
func mergeInto(dst []uint64, payload []byte) {
	for i := range dst {
		dst[i] = max(dst[i], binary.LittleEndian.Uint64(payload[8*i:]))
	}
}

// TestNewestOnceConvergesUnderChaos is the oracle for what the cluster needs
// of gossip. Members broadcast, under two kinds, vectors that only grow (the
// shape of a passed-AT validation: a receiver merges it into what it holds
// by max), over a transport that drops, duplicates, reorders and — for the
// middle of the run — partitions the group in two. Once the partition heals
// and the loss stops, anti-entropy must bring every member to the newest
// update of every (origin, kind), and each member's max-merge of what it was
// delivered must equal the max-merge of everything broadcast: what
// exactly-once delivery yields, whether or not a superseded update was ever
// delivered on the way.
func TestNewestOnceConvergesUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		members := make([]NodeID, n)
		for i := range members {
			members[i] = NodeID(3*i + 1 + rng.Intn(3)) // sparse, ascending
		}
		type key struct {
			origin NodeID
			kind   uint8
		}
		net := &chaosNet{rng: rng, nodes: make(map[NodeID]*Node), lossy: true}
		side := make(map[NodeID]bool) // the partition's two halves
		for _, id := range members {
			side[id] = rng.Intn(2) == 0
		}
		partitioned := false
		net.cut = func(a, b NodeID) bool { return partitioned && side[a] != side[b] }

		merged := make(map[NodeID]map[key][]uint64) // by member: the max-merge of its deliveries
		newest := make(map[NodeID]map[key]uint64)   // by member: the newest seq delivered
		for _, id := range members {
			merged[id], newest[id] = make(map[key][]uint64), make(map[key]uint64)
			net.nodes[id] = New(Config{ID: id, Members: members, Seed: seed, Transport: net, Deliver: func(u Update) {
				k := key{u.Origin, u.Kind}
				if merged[id][k] == nil {
					merged[id][k] = make([]uint64, vecLen)
				}
				mergeInto(merged[id][k], u.Payload)
				newest[id][k] = max(newest[id][k], u.Seq)
			}})
		}

		broadcast := make(map[key][]uint64) // every (origin, kind)'s vector, as last broadcast
		lastSeq := make(map[key]uint64)
		steps := 300 + rng.Intn(300)
		for step := 0; step < steps; step++ {
			partitioned = step > steps/3 && step < 2*steps/3
			switch r := rng.Intn(10); {
			case r < 2:
				origin := members[rng.Intn(n)]
				k := key{origin, uint8(1 + rng.Intn(2))}
				if broadcast[k] == nil {
					broadcast[k] = make([]uint64, vecLen)
				}
				broadcast[k][rng.Intn(vecLen)] += 1 + uint64(rng.Intn(5))
				lastSeq[k] = net.nodes[origin].Broadcast(k.kind, encodeVec(broadcast[k])).Seq
			case r < 3:
				net.nodes[members[rng.Intn(n)]].Tick()
			default:
				for i := rng.Intn(4); i > 0 && len(net.queue) > 0; i-- {
					net.step()
				}
			}
		}

		net.lossy = false
		net.drain()
		converged := func() bool {
			for _, id := range members {
				for k, seq := range lastSeq {
					if k.origin != id && newest[id][k] != seq {
						return false
					}
				}
			}
			return true
		}
		for round := 0; !converged(); round++ {
			if round == 100 {
				t.Fatalf("seed %d: %d members not converged after 100 anti-entropy rounds", seed, n)
			}
			for _, id := range members {
				net.nodes[id].Tick()
			}
			net.drain()
		}
		// What each member holds, and so digests and repairs from, is the
		// newest update of every (origin, kind): nothing it lent the
		// transport, scribbled over since, is among it.
		var held []DigestEntry
		for k, seq := range lastSeq {
			held = append(held, DigestEntry{Origin: k.origin, Kind: k.kind, High: seq})
		}
		slices.SortFunc(held, func(a, b DigestEntry) int {
			return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Kind, b.Kind))
		})
		for _, id := range members {
			if got := net.nodes[id].appendDigest(nil); !slices.Equal(got, held) {
				t.Fatalf("seed %d: member %d holds %v, the newest broadcast of each (origin, kind) is %v", seed, id, got, held)
			}
			for k, want := range broadcast {
				if k.origin == id {
					continue // an origin does not deliver its own updates
				}
				if got := merged[id][k]; !slices.Equal(got, want) {
					t.Fatalf("seed %d: member %d merged (%d, kind %d) to %v, everything broadcast merges to %v", seed, id, k.origin, k.kind, got, want)
				}
			}
		}
	}
}
