// Package gossip implements the seeded, deterministic epidemic dissemination
// layer the N-node cluster uses for its coordination traffic: passed-AT
// vector broadcasts and TB timer-resync beacons. The protocol is classic
// push gossip with anti-entropy repair, and it delivers the newest update of
// each (origin, kind) once — not every update once:
//
//   - Broadcast assigns the update a per-origin sequence number and pushes it
//     to Fanout uniformly chosen peers with a hop budget (TTL) of Rounds; a
//     node handed an update newer than any it holds for that (origin, kind)
//     keeps it in place of the older one, delivers it locally and re-pushes
//     it to Fanout further peers with TTL−1. Expected per-node fan-in is
//     Θ(fanout) copies per update — independent of N — instead of the N−1
//     copies of an all-to-all broadcast.
//   - Every other copy is a duplicate, neither delivered nor pushed on: the
//     update held, or an older one of the same (origin, kind) arriving after
//     it — so a superseded update starts no second epidemic. That is exact
//     for an application whose updates of one (origin, kind) each cover
//     their predecessors, as the cluster's do (passed-AT vectors merge by
//     max and only grow within a recovery epoch; a resync beacon means
//     "resynchronise now").
//   - Anti-entropy closes the gap TTL-bounded pushes leave open (a node down
//     or partitioned while an epidemic burns out never hears it): Tick sends
//     a digest of the newest seq held per (origin, kind) to one random peer,
//     which replies with the newest update of every (origin, kind) the
//     digester lacks — and, when the digest shows the digester is ahead,
//     answers with its own digest so the repair flows both ways. A member
//     holds one update per (origin, kind) and a delta is at most that, so
//     there is no retention horizon: a partition of any length heals.
//
// All randomness comes from a per-node seeded source and peers are kept
// sorted, so a simulated run is exactly reproducible from its seed. The node
// never calls the transport while holding its lock; outbound packets are
// staged and flushed after unlock, so synchronous in-process transports
// cannot deadlock two nodes against each other. Over a transport that copies
// what it keeps (a Copier, as both of the cluster's are), the staging is
// recycled: a warm member allocates nothing per packet.
package gossip

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// NodeID identifies a gossip group member.
type NodeID uint16

// Update kinds are opaque to the gossip layer; the cluster defines its own.

// Update is one disseminated datum, identified by (Origin, Seq). It
// supersedes every update of its (Origin, Kind) with a lower Seq. (Kind
// precedes Seq so that the two small fields share a word.)
type Update struct {
	// Origin is the broadcasting member.
	Origin NodeID
	// Kind tags the payload for the application layer.
	Kind uint8
	// Seq is the origin-assigned sequence number (1-based, one counter over
	// all of the origin's kinds).
	Seq uint64
	// Payload is the opaque application datum. Receivers must not mutate it.
	Payload []byte
}

// Packet kinds.
const (
	// PacketPush carries fresh updates along the epidemic.
	PacketPush uint8 = iota + 1
	// PacketDigest carries the newest seq held per (origin, kind).
	PacketDigest
	// PacketDelta carries updates repairing a digest gap (never forwarded).
	PacketDelta
)

// DigestEntry summarizes one (origin, kind): High is the newest seq held.
type DigestEntry struct {
	Origin NodeID
	Kind   uint8
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
	// Digest carries the summary of a digest, sorted by (origin, kind).
	Digest []DigestEntry
	// Reply marks a digest sent in answer to a digest, terminating the
	// exchange (a reply digest elicits a delta but never another digest).
	Reply bool
	// Borrowed marks a packet whose payloads alias a frame, and whose Updates
	// and Digest are scratch, that the sender of this value reuses once Handle
	// returns (DecodeBorrowed sets it). Handle then copies each payload it
	// keeps; a packet handed over outright — the simulator's, by value — is
	// kept as it is. Not on the wire.
	Borrowed bool
}

// Transport sends packets between members. Send must not call back into the
// sending node synchronously from the same goroutine that holds its lock —
// both in-tree transports deliver asynchronously (the simulator through the
// event queue, the live runner through the destination node's event loop).
// A packet handed to a plain Transport is built for it alone, and it may keep
// the packet as it is.
type Transport interface {
	Send(to NodeID, p Packet)
}

// Copier is a Transport whose Send borrows the packet — the send-side
// mirror of Borrowed: its Updates and Digest are the sending node's staging,
// which the node reuses once Send returns, so Send copies whatever of them it
// keeps (the live runtime encodes the packet, the simulator copies the two
// slices). Payloads are never written after they are handed out, and may be
// kept as they are.
type Copier interface {
	Transport
	// CopiesOnSend marks the contract; it is never called.
	CopiesOnSend()
}

// Config assembles one member.
type Config struct {
	// ID is this member's identity.
	ID NodeID
	// Members lists the whole group, self included (order irrelevant).
	// Membership is closed: an update or digest entry naming an origin
	// outside it, or a digest from a sender outside it, is ignored (counted
	// as received, never kept, forwarded or answered).
	Members []NodeID
	// Fanout is the number of peers each newer update is pushed to
	// (default 3).
	Fanout int
	// Rounds is the push hop budget (TTL). 0 picks a default deep enough
	// for the group: ceil(log2(N)) + 2.
	Rounds int
	// Seed drives peer selection; mixed with ID so members diverge.
	Seed int64
	// Transport carries packets.
	Transport Transport
	// Deliver is the newest-once delivery callback: it sees an update only
	// if it is newer than every update of its (origin, kind) delivered
	// before, and never sees one twice. It runs without the node lock held
	// and must not block for long.
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
	// Delivered counts newest-once deliveries: updates newer than the one
	// held for their (origin, kind). A superseded update this member never
	// saw in time is not delivered and not counted.
	Delivered uint64
	// Duplicates counts update copies neither delivered nor pushed on: a
	// copy of the update held for its (origin, kind), or of an older one it
	// supersedes.
	Duplicates uint64
	// DigestsSent and DigestsRecv count anti-entropy digests.
	DigestsSent, DigestsRecv uint64
	// Repairs counts updates delivered from a delta (anti-entropy healing).
	Repairs uint64
}

// Node is one gossip group member.
type Node struct {
	mu      sync.Mutex
	id      NodeID
	members []NodeID // ascending, self included
	peers   []NodeID // members without self
	fanout  int
	rounds  int
	rng     *rand.Rand
	tr      Transport
	deliver func(Update)

	nextSeq uint64
	// newest holds the newest update of every (origin, kind) seen, in
	// ascending (origin, kind) order: at most members × kinds entries, the
	// dedup answer, the digest and all a delta can supply.
	newest []Update
	perm   []int // pushLocked's peer indices, shuffled in place push after push
	stats  Stats

	// recycle is set over a Copier, which has let go of a packet when Send
	// returns: flush then keeps the buffers the packets pointed into with
	// the stage. Any other transport may keep a packet, and those buffers go
	// with it.
	recycle bool
}

// envelope is one staged outbound transmission.
type envelope struct {
	to NodeID
	// upd is a push's update: an index into its stage's pushed, which
	// packet points p.Updates at.
	upd int32
	p   Packet
}

// stage is one call's work outside the node lock — the envelopes it sends
// and the updates it delivers — and the buffers its packets are built in. A
// call takes its own under the node lock and flush hands it back, so two
// calls on one member — in live mode a promoted shadow's Broadcast runs on
// its active's loop while the shadow's own loop runs Handle — never share one.
type stage struct {
	out       []envelope
	pushed    []Update // one per push, shared by its envelopes
	delivered []Update
	digest    []DigestEntry
	delta     []Update
	known     []uint64 // repairLocked's, by index into newest: the seq a digest names
}

// packet is out[i] as the transport is handed it.
func (s *stage) packet(i int) Packet {
	e := &s.out[i]
	p := e.p
	if p.Kind == PacketPush {
		p.Updates = s.pushed[e.upd : e.upd+1 : e.upd+1]
	}
	return p
}

// stages is shared by every member: a stage is back as soon as its packets
// are sent, so a process holds few whatever the membership.
var stages = sync.Pool{New: func() any { return new(stage) }}

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
	deliver := cfg.Deliver
	if deliver == nil {
		deliver = func(Update) {}
	}
	perm := make([]int, len(peers))
	for i := range perm {
		perm[i] = i
	}
	_, recycle := cfg.Transport.(Copier)
	return &Node{
		id:      cfg.ID,
		members: members,
		peers:   peers,
		fanout:  fanout,
		rounds:  rounds,
		rng:     rand.New(&lazySource{seed: mixSeed(cfg.Seed, uint64(cfg.ID))}),
		tr:      cfg.Transport,
		deliver: deliver,
		perm:    perm,
		recycle: recycle,
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
	n.keep(u)
	n.stats.Originated++
	s := stages.Get().(*stage)
	n.pushLocked(s, u, n.rounds, n.id)
	n.mu.Unlock()
	n.flush(s)
	return u
}

// Handle processes one received packet. Of a Borrowed packet it keeps
// nothing: a duplicate is told from (origin, kind, seq) alone, and a newer
// update's payload is copied at the moment it is kept — the copy is what is
// held, delivered and pushed on. A packet that stages nothing (a duplicate)
// takes no stage.
func (n *Node) Handle(p Packet) {
	n.mu.Lock()
	n.stats.PacketsRecv++
	var s *stage
	switch p.Kind {
	case PacketPush, PacketDelta:
		for _, u := range p.Updates {
			n.stats.UpdatesRecv++
			i, held := n.find(u.Origin, u.Kind)
			switch {
			case !held && n.rank(u.Origin) < 0:
				continue // not a member's update
			case u.Seq == 0 || held && u.Seq <= n.newest[i].Seq:
				n.stats.Duplicates++ // seqs start at 1: a 0 is never newer
				continue
			}
			if p.Borrowed {
				u.Payload = bytes.Clone(u.Payload)
			}
			n.keep(u)
			n.stats.Delivered++
			if p.Kind == PacketDelta {
				n.stats.Repairs++
			}
			if s == nil {
				s = stages.Get().(*stage)
			}
			s.delivered = append(s.delivered, u)
			if p.Kind == PacketPush && p.TTL > 0 {
				n.pushLocked(s, u, int(p.TTL), p.From)
			}
		}
	case PacketDigest:
		n.stats.DigestsRecv++
		s = n.repairLocked(p)
	}
	n.mu.Unlock()
	if s == nil {
		return
	}
	for _, u := range s.delivered {
		n.deliver(u)
	}
	n.flush(s)
}

// Tick runs one anti-entropy round: a digest to one random peer.
func (n *Node) Tick() {
	n.mu.Lock()
	if len(n.peers) == 0 {
		n.mu.Unlock()
		return
	}
	peer := n.peers[n.rng.Intn(len(n.peers))]
	s := stages.Get().(*stage)
	s.digest = n.appendDigest(s.digest)
	s.out = append(s.out, envelope{to: peer, p: Packet{Kind: PacketDigest, From: n.id, Digest: s.digest}})
	n.stats.DigestsSent++
	n.mu.Unlock()
	n.flush(s)
}

// pushLocked stages in s a push of u to fanout random peers, excluding
// the member it arrived from and its origin. TTL is the budget the outgoing
// hop consumes one unit of. The peers are drawn by a partial Fisher–Yates
// shuffle of the member's index buffer that stops once fanout are staged:
// each draw is uniform over the peers not yet drawn, whatever order earlier
// pushes left the buffer in, so a push costs fanout draws plus one per
// excluded peer drawn instead of one per peer. The envelopes share the one
// copy of u the stage keeps.
func (n *Node) pushLocked(s *stage, u Update, ttl int, from NodeID) {
	if ttl <= 0 || len(n.peers) == 0 {
		return
	}
	upd := int32(len(s.pushed))
	s.pushed = append(s.pushed, u)
	out := slices.Grow(s.out, n.fanout)
	perm := n.perm
	for i, limit := 0, len(out)+n.fanout; i < len(perm) && len(out) < limit; i++ {
		j := i + n.rng.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		peer := n.peers[perm[i]]
		if peer == from || peer == u.Origin {
			continue
		}
		out = append(out, envelope{to: peer, upd: upd, p: Packet{
			Kind: PacketPush, From: n.id, TTL: uint8(ttl - 1),
		}})
	}
	s.out = out
}

// repairLocked answers a digest in a stage — nil if it comes from a
// stranger: a delta with the newest update of every (origin, kind) the
// digester lacks, plus — on a non-reply digest that shows the digester ahead
// — our own digest so the repair flows back. A wire-decoded digest may be
// unsorted or name a pair twice; a pair counts as held up to the highest seq
// named for it, and one never named as held up to nothing.
func (n *Node) repairLocked(p Packet) *stage {
	if n.rank(p.From) < 0 {
		return nil // nowhere to answer to
	}
	s := stages.Get().(*stage)
	behind := false
	// known is zeroed, one entry per pair held; a digest in ascending order
	// names the pair after the last one's, or close.
	known := append(s.known[:0], make([]uint64, len(n.newest))...)
	s.known = known
	next := 0
	for _, e := range p.Digest {
		i := next
		if i >= len(n.newest) || n.newest[i].Origin != e.Origin || n.newest[i].Kind != e.Kind {
			var held bool
			if i, held = n.find(e.Origin, e.Kind); !held {
				// Never seen here: the digester is ahead if it holds any of
				// it (and it is a member's).
				behind = behind || e.High > 0 && n.rank(e.Origin) >= 0
				continue
			}
		}
		next = i + 1
		known[i] = max(known[i], e.High)
		behind = behind || e.High > n.newest[i].Seq
	}
	for i := range n.newest {
		if n.newest[i].Seq > known[i] {
			s.delta = append(s.delta, n.newest[i])
		}
	}
	if len(s.delta) > 0 {
		s.out = append(s.out, envelope{to: p.From, p: Packet{Kind: PacketDelta, From: n.id, Updates: s.delta}})
	}
	if behind && !p.Reply {
		s.digest = n.appendDigest(s.digest)
		s.out = append(s.out, envelope{to: p.From, p: Packet{Kind: PacketDigest, From: n.id, Digest: s.digest, Reply: true}})
		n.stats.DigestsSent++
	}
	return s
}

// appendDigest appends to d the summary of what this member holds, in
// ascending (origin, kind) order. It is built in a stage, never aliasing
// newest: a transport may deliver the packet after this node has kept more.
func (n *Node) appendDigest(d []DigestEntry) []DigestEntry {
	d = slices.Grow(d, len(n.newest))
	for _, u := range n.newest {
		d = append(d, DigestEntry{Origin: u.Origin, Kind: u.Kind, High: u.Seq})
	}
	return d
}

// rank returns a member's index in the sorted member list, -1 for a stranger.
func (n *Node) rank(id NodeID) int {
	if r, ok := slices.BinarySearch(n.members, id); ok {
		return r
	}
	return -1
}

// find returns where (origin, kind) is in newest, or would go. It runs on
// every update copy received, so it is the binary search written out, over
// the elements in place.
func (n *Node) find(origin NodeID, kind uint8) (int, bool) {
	key := uint32(origin)<<8 | uint32(kind)
	lo, hi := 0, len(n.newest)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u := &n.newest[mid]; uint32(u.Origin)<<8|uint32(u.Kind) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.newest) && n.newest[lo].Origin == origin && n.newest[lo].Kind == kind
}

// keep makes u, a member's update newer than any held for its (origin,
// kind), the one held.
func (n *Node) keep(u Update) {
	if i, held := n.find(u.Origin, u.Kind); held {
		n.newest[i] = u
	} else {
		n.newest = slices.Insert(n.newest, i, u)
	}
}

// flush transmits a stage's envelopes outside the node lock and counts them,
// then puts the stage back.
func (n *Node) flush(s *stage) {
	if len(s.out) > 0 {
		for i := range s.out {
			n.tr.Send(s.out[i].to, s.packet(i))
		}
		n.mu.Lock()
		n.stats.PacketsSent += uint64(len(s.out))
		n.mu.Unlock()
	}
	if !n.recycle {
		s.pushed, s.digest, s.delta = nil, nil, nil // the transport's now
	}
	s.release()
	stages.Put(s)
}

// release empties s for its next call, dropping the payloads its updates
// referred to.
func (s *stage) release() {
	clear(s.out)
	clear(s.pushed)
	clear(s.delivered)
	clear(s.delta)
	s.out, s.pushed, s.delivered, s.delta = s.out[:0], s.pushed[:0], s.delivered[:0], s.delta[:0]
	s.digest, s.known = s.digest[:0], s.known[:0]
}

// lazySource is math/rand's seeded source, seeded at its first draw — same
// seed, same stream, as the cluster's nodes do with theirs. Seeding costs more
// than the rest of a member's assembly, and the seeded state (4.9 KB) is most
// of what a member holds: a membership assembled and not yet gossiping — or
// assembled only to be stopped — does without both.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) seeded() rand.Source64 {
	if s.src == nil {
		s.src, _ = rand.NewSource(s.seed).(rand.Source64) // documented to be one
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.seeded().Int63() }
func (s *lazySource) Uint64() uint64  { return s.seeded().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// mixSeed derives a stream-specific seed (splitmix64 over seed ^ salt), the
// same construction the coordination layers use.
func mixSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) ^ salt
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
