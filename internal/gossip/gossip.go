// Package gossip implements the seeded, deterministic epidemic dissemination
// layer the N-node cluster uses for its coordination traffic: passed-AT
// vector broadcasts and TB timer-resync beacons. The protocol is classic
// push gossip with anti-entropy repair:
//
//   - Broadcast assigns the update a per-origin sequence number and pushes it
//     to Fanout uniformly chosen peers with a hop budget (TTL) of Rounds;
//     every node that sees the update for the first time delivers it locally
//     and re-pushes it to Fanout further peers with TTL−1. Expected per-node
//     fan-in is Θ(fanout) copies per update — independent of N — instead of
//     the N−1 copies of an all-to-all broadcast.
//   - Dedup is by (origin, seq): a node delivers each update exactly once, no
//     matter how many copies the epidemic hands it.
//   - Anti-entropy closes the gap TTL-bounded pushes leave open (a node down
//     or partitioned while an epidemic burns out never hears it): Tick sends
//     a per-origin contiguous high-water digest to one random peer, which
//     replies with the updates the digester is missing — and, when the digest
//     shows the digester is ahead, answers with its own digest so the repair
//     flows both ways.
//
// All randomness comes from a per-node seeded source and peers are kept
// sorted, so a simulated run is exactly reproducible from its seed. The node
// never calls the transport while holding its lock; outbound packets are
// staged and flushed after unlock, so synchronous in-process transports
// cannot deadlock two nodes against each other.
package gossip

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// NodeID identifies a gossip group member.
type NodeID uint16

// Update kinds are opaque to the gossip layer; the cluster defines its own.

// Update is one disseminated datum, identified by (Origin, Seq).
type Update struct {
	// Origin is the broadcasting member.
	Origin NodeID
	// Seq is the origin-assigned sequence number (1-based, contiguous).
	Seq uint64
	// Kind tags the payload for the application layer.
	Kind uint8
	// Payload is the opaque application datum. Receivers must not mutate it.
	Payload []byte
}

// Packet kinds.
const (
	// PacketPush carries fresh updates along the epidemic.
	PacketPush uint8 = iota + 1
	// PacketDigest carries a per-origin contiguous high-water summary.
	PacketDigest
	// PacketDelta carries updates repairing a digest gap (never forwarded).
	PacketDelta
)

// DigestEntry summarizes one origin's stream: every Seq ≤ High has been seen.
type DigestEntry struct {
	Origin NodeID
	High   uint64
}

// Packet is one gossip transmission.
type Packet struct {
	// Kind is PacketPush, PacketDigest or PacketDelta.
	Kind uint8
	// From is the transmitting member (not necessarily the origin).
	From NodeID
	// TTL is the remaining hop budget of a push.
	TTL uint8
	// Updates carries the payloads of a push or delta.
	Updates []Update
	// Digest carries the summary of a digest, sorted by origin.
	Digest []DigestEntry
	// Reply marks a digest sent in answer to a digest, terminating the
	// exchange (a reply digest elicits a delta but never another digest).
	Reply bool
	// Borrowed marks a packet whose payloads alias a frame, and whose Updates
	// and Digest are scratch, that the sender of this value reuses once Handle
	// returns (DecodeBorrowed sets it). Handle then copies each payload it
	// records; a packet handed over outright — the simulator's, by value —
	// is recorded as it is. Not on the wire.
	Borrowed bool
}

// Transport sends packets between members. Send must not call back into the
// sending node synchronously from the same goroutine that holds its lock —
// both in-tree transports deliver asynchronously (the simulator through the
// event queue, the live runner through the destination node's event loop).
type Transport interface {
	Send(to NodeID, p Packet)
}

// Config assembles one member.
type Config struct {
	// ID is this member's identity.
	ID NodeID
	// Members lists the whole group, self included (order irrelevant).
	// Membership is closed: an update or digest entry naming an origin
	// outside it, or a digest from a sender outside it, is ignored (counted
	// as received, never recorded, forwarded or answered).
	Members []NodeID
	// Fanout is the number of peers each fresh update is pushed to
	// (default 3).
	Fanout int
	// Rounds is the push hop budget (TTL). 0 picks a default deep enough
	// for the group: ceil(log2(N)) + 2.
	Rounds int
	// Retain bounds the per-origin updates kept for anti-entropy supply
	// (default 4096). Gaps older than the retention horizon cannot be
	// repaired — the cluster sizes it to cover its longest partition.
	Retain int
	// Seed drives peer selection; mixed with ID so members diverge.
	Seed int64
	// Transport carries packets.
	Transport Transport
	// Deliver is the exactly-once delivery callback. It runs without the
	// node lock held and must not block for long.
	Deliver func(Update)
}

// Stats counts protocol activity. Fan-in per delivered update is
// UpdatesRecv/Delivered — the quantity the cluster's dissemination
// expectation bounds by O(fanout·rounds).
type Stats struct {
	// Originated counts local Broadcast calls.
	Originated uint64
	// PacketsSent and PacketsRecv count transmissions of any kind.
	PacketsSent, PacketsRecv uint64
	// UpdatesRecv counts update copies received (push and delta).
	UpdatesRecv uint64
	// Delivered counts exactly-once deliveries (fresh updates).
	Delivered uint64
	// Duplicates counts update copies suppressed by dedup.
	Duplicates uint64
	// DigestsSent and DigestsRecv count anti-entropy digests.
	DigestsSent, DigestsRecv uint64
	// Repairs counts updates received via delta (anti-entropy healing).
	Repairs uint64
}

// originState tracks one origin's stream at this member. The updates retained
// for anti-entropy supply are the Retain newest of the contiguous run, in a
// ring that starts empty and doubles on demand: most origins of a large group
// are quiet, and Retain is sized for the busiest.
type originState struct {
	// high is the contiguous high-water: every seq ≤ high has been seen.
	high uint64
	// ring holds the retained seqs at seq&(len-1); len is 0 or a power of two.
	ring []Update
}

// floor returns the lowest retained seq: [floor, high] is the retain newest.
func (st *originState) floor(retain uint64) uint64 { return st.high + 1 - min(st.high, retain) }

// at returns the retained update with the given seq ∈ [floor, high].
func (st *originState) at(seq uint64) *Update { return &st.ring[seq&uint64(len(st.ring)-1)] }

// push appends u, the update after high; the retention horizon moves with it.
func (st *originState) push(u Update, retain uint64) {
	st.high++
	if floor := st.floor(retain); st.high-floor == uint64(len(st.ring)) { // full: double and re-place
		old := *st
		st.ring = make([]Update, max(4, 2*len(old.ring)))
		for seq := floor; seq < st.high; seq++ {
			*st.at(seq) = *old.at(seq)
		}
	}
	*st.at(st.high) = u
}

// Node is one gossip group member.
type Node struct {
	mu      sync.Mutex
	id      NodeID
	members []NodeID // ascending, self included: an origin's rank is its index
	peers   []NodeID // members without self
	fanout  int
	rounds  int
	retain  uint64
	rng     *rand.Rand
	tr      Transport
	deliver func(Update)

	nextSeq uint64
	// origins holds every member's stream, indexed by rank. ID→rank is a binary
	// search over members: never a hash, nothing sized by the largest ID.
	origins []originState
	// digest is the anti-entropy summary, kept rather than rebuilt: one
	// entry per origin ever recorded, in ascending origin order, High raised
	// in place as the stream advances.
	digest []DigestEntry
	named  []bool // by rank: the origins an incoming digest names (repairLocked's scratch)
	// ahead holds updates seen beyond their origin's high+1, over a gap, in
	// ascending (origin, seq) order: reordering keeps it at a handful.
	ahead []Update
	perm  []int // pushLocked's peer permutation, reused
	stats Stats
}

// envelope is one staged outbound transmission.
type envelope struct {
	to NodeID
	p  Packet
}

// New assembles a member. It panics on a config that cannot gossip at all
// (no transport, not a member of its own group) — construction-time bugs,
// not runtime conditions.
func New(cfg Config) *Node {
	if cfg.Transport == nil {
		panic("gossip: nil transport")
	}
	members := slices.Clone(cfg.Members)
	slices.Sort(members)
	members = slices.Compact(members)
	self, ok := slices.BinarySearch(members, cfg.ID)
	if !ok {
		panic(fmt.Sprintf("gossip: node %d not in its own member list", cfg.ID))
	}
	peers := make([]NodeID, 0, len(members)-1)
	peers = append(append(peers, members[:self]...), members[self+1:]...)
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = 3
	}
	if fanout > len(peers) {
		fanout = len(peers)
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = defaultRounds(len(peers) + 1)
	}
	retain := cfg.Retain
	if retain <= 0 {
		retain = 4096
	}
	deliver := cfg.Deliver
	if deliver == nil {
		deliver = func(Update) {}
	}
	return &Node{
		id:      cfg.ID,
		members: members,
		peers:   peers,
		fanout:  fanout,
		rounds:  rounds,
		retain:  uint64(retain),
		rng:     rand.New(rand.NewSource(mixSeed(cfg.Seed, uint64(cfg.ID)))),
		tr:      cfg.Transport,
		deliver: deliver,
		origins: make([]originState, len(members)),
		named:   make([]bool, len(members)),
		perm:    make([]int, len(peers)),
	}
}

// defaultRounds is the hop budget that saturates a group of n members with
// margin: ceil(log2(n)) + 2.
func defaultRounds(n int) int {
	r := 2
	for s := 1; s < n; s <<= 1 {
		r++
	}
	return r
}

// Rounds returns the push hop budget in effect.
func (n *Node) Rounds() int { return n.rounds }

// Fanout returns the per-hop fanout in effect.
func (n *Node) Fanout() int { return n.fanout }

// Stats returns a snapshot of the activity counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Broadcast originates one update and starts its epidemic. The origin does
// not deliver its own update (it already acted on the datum it broadcasts).
func (n *Node) Broadcast(kind uint8, payload []byte) Update {
	n.mu.Lock()
	n.nextSeq++
	u := Update{Origin: n.id, Seq: n.nextSeq, Kind: kind, Payload: payload}
	n.record(u)
	n.stats.Originated++
	out := n.pushLocked(nil, u, n.rounds, n.id)
	n.mu.Unlock()
	n.flush(out)
	return u
}

// Handle processes one received packet. Of a Borrowed packet it keeps
// nothing: a duplicate is told from (origin, seq) alone, and a fresh update's
// payload is copied at the moment it is recorded — the copy is what is
// retained, delivered and pushed on.
func (n *Node) Handle(p Packet) {
	n.mu.Lock()
	n.stats.PacketsRecv++
	var staged [4]envelope // a push of one fresh update stages fanout of them
	var fresh [4]Update
	out, delivered := staged[:0], fresh[:0]
	switch p.Kind {
	case PacketPush, PacketDelta:
		for _, u := range p.Updates {
			n.stats.UpdatesRecv++
			if n.seen(u.Origin, u.Seq) {
				n.stats.Duplicates++
				continue
			}
			if p.Borrowed {
				u.Payload = bytes.Clone(u.Payload)
			}
			if !n.record(u) {
				continue // not a member's update
			}
			n.stats.Delivered++
			if p.Kind == PacketDelta {
				n.stats.Repairs++
			}
			delivered = append(delivered, u)
			if p.Kind == PacketPush && p.TTL > 0 {
				out = n.pushLocked(out, u, int(p.TTL), p.From)
			}
		}
	case PacketDigest:
		n.stats.DigestsRecv++
		out = n.repairLocked(p)
	}
	n.mu.Unlock()
	for _, u := range delivered {
		n.deliver(u)
	}
	n.flush(out)
}

// Tick runs one anti-entropy round: a digest to one random peer.
func (n *Node) Tick() {
	n.mu.Lock()
	var out []envelope
	if len(n.peers) > 0 {
		peer := n.peers[n.rng.Intn(len(n.peers))]
		out = append(out, envelope{to: peer, p: Packet{
			Kind: PacketDigest, From: n.id, Digest: n.digestLocked(),
		}})
		n.stats.DigestsSent++
	}
	n.mu.Unlock()
	n.flush(out)
}

// pushLocked stages onto out a push of u to fanout random peers, excluding
// the member it arrived from. TTL is the budget the outgoing hop consumes one
// unit of. The envelopes share one Updates slice (receivers only read it).
func (n *Node) pushLocked(out []envelope, u Update, ttl int, from NodeID) []envelope {
	if ttl <= 0 || len(n.peers) == 0 {
		return out
	}
	// rand.Perm's algorithm, draw for draw (simulator transcripts depend on
	// the sequence), into the node's own buffer.
	perm := n.perm
	for i := range perm {
		j := n.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	if out == nil {
		out = make([]envelope, 0, n.fanout)
	}
	updates := []Update{u}
	limit := len(out) + n.fanout
	for _, idx := range perm {
		if len(out) == limit {
			break
		}
		peer := n.peers[idx]
		if peer == from || peer == u.Origin {
			continue
		}
		out = append(out, envelope{to: peer, p: Packet{
			Kind: PacketPush, From: n.id, TTL: uint8(ttl - 1), Updates: updates,
		}})
	}
	return out
}

// maxDeltaUpdates caps one delta reply; wider gaps heal across several ticks.
const maxDeltaUpdates = 128

// repairLocked answers a digest: a delta with the updates the digester is
// missing, plus — on a non-reply digest where the digester is ahead — our own
// digest so the missing updates flow back. Entries are answered in the order
// given, one at a time (a wire-decoded digest may be unsorted or name an
// origin twice), then the origins it does not name in ascending order.
func (n *Node) repairLocked(p Packet) []envelope {
	if n.rank(p.From) < 0 {
		return nil // nowhere to answer to
	}
	var delta []Update
	behind := false
	clear(n.named)
	next := 0 // a digest in ascending order names the rank after the last, or close
	for _, e := range p.Digest {
		r := next
		if r >= len(n.members) || n.members[r] != e.Origin {
			if r = n.rank(e.Origin); r < 0 {
				continue
			}
		}
		next = r + 1
		n.named[r] = true
		st := &n.origins[r]
		if e.High > st.high {
			behind = true
		}
		for seq := max(e.High+1, st.floor(n.retain)); seq <= st.high && len(delta) < maxDeltaUpdates; seq++ {
			delta = append(delta, *st.at(seq))
		}
	}
	// Origins the digester has never heard of at all (one never recorded
	// here has high 0 and supplies nothing).
	for r := 0; r < len(n.origins) && len(delta) < maxDeltaUpdates; r++ {
		if n.named[r] {
			continue
		}
		st := &n.origins[r]
		for seq := st.floor(n.retain); seq <= st.high && len(delta) < maxDeltaUpdates; seq++ {
			delta = append(delta, *st.at(seq))
		}
	}
	var out []envelope
	if len(delta) > 0 {
		out = append(out, envelope{to: p.From, p: Packet{Kind: PacketDelta, From: n.id, Updates: delta}})
	}
	if behind && !p.Reply {
		out = append(out, envelope{to: p.From, p: Packet{
			Kind: PacketDigest, From: n.id, Digest: n.digestLocked(), Reply: true,
		}})
		n.stats.DigestsSent++
	}
	return out
}

// digestLocked summarizes every known origin, in ascending origin order. It
// hands out a copy: a packet is delivered, by value, after this node has
// recorded more, so the kept digest must never be aliased.
func (n *Node) digestLocked() []DigestEntry { return slices.Clone(n.digest) }

// rank returns a member's index in the sorted member list, -1 for a stranger.
func (n *Node) rank(id NodeID) int {
	if r, ok := slices.BinarySearch(n.members, id); ok {
		return r
	}
	return -1
}

// seen reports whether (origin, seq) has been recorded.
func (n *Node) seen(origin NodeID, seq uint64) bool {
	if r := n.rank(origin); r >= 0 && seq <= n.origins[r].high {
		return true
	}
	if len(n.ahead) == 0 {
		return false
	}
	_, ok := n.aheadAt(origin, seq)
	return ok
}

// aheadAt finds where in ahead (origin, seq) is, or would go. On the path of
// every update copy received while anything is ahead, so it is the binary
// search written out, over the elements in place.
func (n *Node) aheadAt(origin NodeID, seq uint64) (int, bool) {
	lo, hi := 0, len(n.ahead)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u := &n.ahead[mid]; u.Origin < origin || u.Origin == origin && u.Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.ahead) && n.ahead[lo].Origin == origin && n.ahead[lo].Seq == seq
}

// record marks a not-yet-seen update seen, retains it for anti-entropy,
// advances the contiguous high-water, and evicts beyond the retention horizon.
// It reports false, having done nothing, for an origin that is not a member.
func (n *Node) record(u Update) bool {
	r := n.rank(u.Origin)
	if r < 0 {
		return false
	}
	// The origin's digest entry, entered at its first record: High 0 if that
	// update lands in ahead.
	at, ok := slices.BinarySearchFunc(n.digest, u.Origin, func(e DigestEntry, id NodeID) int { return cmp.Compare(e.Origin, id) })
	if !ok {
		n.digest = slices.Insert(n.digest, at, DigestEntry{Origin: u.Origin})
	}
	st := &n.origins[r]
	if u.Seq != st.high+1 {
		i, _ := n.aheadAt(u.Origin, u.Seq)
		n.ahead = slices.Insert(n.ahead, i, u)
		return true
	}
	st.push(u, n.retain)
	if len(n.ahead) > 0 {
		// The run the gap's closing made contiguous sits together in ahead.
		i, _ := n.aheadAt(u.Origin, st.high+1)
		j := i
		for ; j < len(n.ahead) && n.ahead[j].Origin == u.Origin && n.ahead[j].Seq == st.high+1; j++ {
			st.push(n.ahead[j], n.retain)
		}
		n.ahead = slices.Delete(n.ahead, i, j)
	}
	n.digest[at].High = st.high
	return true
}

// flush transmits staged envelopes outside the node lock.
func (n *Node) flush(out []envelope) {
	if len(out) == 0 {
		return
	}
	n.mu.Lock()
	n.stats.PacketsSent += uint64(len(out))
	n.mu.Unlock()
	for _, e := range out {
		n.tr.Send(e.to, e.p)
	}
}

// mixSeed derives a stream-specific seed (splitmix64 over seed ^ salt), the
// same construction the coordination layers use.
func mixSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) ^ salt
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
