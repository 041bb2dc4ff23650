package gossip

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// memNet is a deterministic in-memory transport: Send enqueues, and the test
// drains the queue in FIFO order, so a run's packet schedule is a pure
// function of the seed. Send borrows the packet, as a Copier's does: what is
// queued is a copy, in buffers drain recycles once the packet is handled.
type memNet struct {
	nodes   map[NodeID]*Node
	queue   []envelope
	head    int // queue[head:] is still to deliver
	updates [][]Update
	digests [][]DigestEntry
}

func newMemNet() *memNet { return &memNet{nodes: make(map[NodeID]*Node)} }

type memPort struct {
	net *memNet
}

func (p *memPort) Send(to NodeID, pkt Packet) {
	n := p.net
	if len(pkt.Updates) > 0 {
		pkt.Updates = append(takeBuf(&n.updates), pkt.Updates...)
	}
	if len(pkt.Digest) > 0 {
		pkt.Digest = append(takeBuf(&n.digests), pkt.Digest...)
	}
	n.queue = append(n.queue, envelope{to: to, p: pkt})
}

func (*memPort) CopiesOnSend() {}

// takeBuf pops an empty buffer off a free list, nil if it has none.
func takeBuf[T any](free *[][]T) []T {
	k := len(*free)
	if k == 0 {
		return nil
	}
	b := (*free)[k-1]
	*free = (*free)[:k-1]
	return b
}

// drain delivers queued packets until quiescence, skipping nodes in down.
func (n *memNet) drain(down map[NodeID]bool) {
	for n.head < len(n.queue) {
		e := n.queue[n.head]
		n.head++
		if node := n.nodes[e.to]; node != nil && !down[e.to] {
			node.Handle(e.p)
		}
		if e.p.Updates != nil {
			n.updates = append(n.updates, e.p.Updates[:0])
		}
		if e.p.Digest != nil {
			n.digests = append(n.digests, e.p.Digest[:0])
		}
	}
	clear(n.queue)
	n.queue, n.head = n.queue[:0], 0
}

// clonePacket is what a transport that keeps a borrowed packet queues: its
// own copies of the two slices the sender reuses.
func clonePacket(p Packet) Packet {
	p.Updates = slices.Clone(p.Updates)
	p.Digest = slices.Clone(p.Digest)
	return p
}

// build assembles a group of n members with ids 0..n-1.
func build(t testing.TB, n int, seed int64, deliver func(id NodeID, u Update)) (*memNet, []*Node) {
	t.Helper()
	net := newMemNet()
	members := make([]NodeID, n)
	for i := range members {
		members[i] = NodeID(i)
	}
	nodes := make([]*Node, n)
	for i := range members {
		id := members[i]
		nodes[i] = New(Config{
			ID: id, Members: members, Seed: seed,
			Transport: &memPort{net: net},
			Deliver:   func(u Update) { deliver(id, u) },
		})
		net.nodes[id] = nodes[i]
	}
	return net, nodes
}

func TestBroadcastReachesEveryoneExactlyOnce(t *testing.T) {
	const n = 32
	got := make(map[NodeID][]Update)
	net, nodes := build(t, n, 7, func(id NodeID, u Update) { got[id] = append(got[id], u) })
	nodes[0].Broadcast(1, []byte("hello"))
	net.drain(nil)
	// Pushes alone may miss a few members (TTL-bounded epidemic); ticks
	// close the gap.
	for round := 0; round < 8; round++ {
		for _, nd := range nodes {
			nd.Tick()
		}
		net.drain(nil)
	}
	for id := NodeID(1); id < n; id++ {
		if len(got[id]) != 1 {
			t.Fatalf("node %d delivered %d times, want exactly 1", id, len(got[id]))
		}
		if string(got[id][0].Payload) != "hello" {
			t.Fatalf("node %d got payload %q", id, got[id][0].Payload)
		}
	}
	if len(got[0]) != 0 {
		t.Fatalf("origin delivered its own broadcast")
	}
}

// runTrace executes a fixed scenario and returns a canonical textual trace of
// every delivery plus final stats — the byte-identical determinism witness.
func runTrace(t *testing.T, seed int64) []byte {
	var buf bytes.Buffer
	deliveries := make(map[NodeID][]Update)
	net, nodes := build(t, 16, seed, func(id NodeID, u Update) {
		deliveries[id] = append(deliveries[id], u)
	})
	for i := 0; i < 10; i++ {
		nodes[i%4].Broadcast(uint8(i%3), []byte{byte(i)})
		if i%2 == 0 {
			net.drain(nil)
		}
	}
	net.drain(nil)
	for round := 0; round < 4; round++ {
		for _, nd := range nodes {
			nd.Tick()
		}
		net.drain(nil)
	}
	for id := NodeID(0); id < 16; id++ {
		fmt.Fprintf(&buf, "node %d:", id)
		for _, u := range deliveries[id] {
			fmt.Fprintf(&buf, " (%d,%d,%d,%x)", u.Origin, u.Seq, u.Kind, u.Payload)
		}
		st := net.nodes[id].Stats()
		fmt.Fprintf(&buf, " stats=%+v\n", st)
	}
	return buf.Bytes()
}

func TestSeededRunsAreByteIdentical(t *testing.T) {
	a := runTrace(t, 42)
	b := runTrace(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	c := runTrace(t, 43)
	if bytes.Equal(a, c) {
		t.Fatalf("different seeds produced identical traces (rng not wired)")
	}
}

func TestAntiEntropyHealsPartitionedNode(t *testing.T) {
	const n = 12
	const victim = NodeID(11)
	got := make(map[NodeID]map[string]int)
	net, nodes := build(t, n, 3, func(id NodeID, u Update) {
		if got[id] == nil {
			got[id] = make(map[string]int)
		}
		got[id][fmt.Sprintf("%d/%d/%d", u.Origin, u.Kind, u.Seq)]++
	})
	// The victim is partitioned while three origins' passed-AT broadcasts —
	// and a resync beacon from one of them — burn out; origin 0 broadcasts
	// three times, each superseding the last.
	down := map[NodeID]bool{victim: true}
	for i := 0; i < 3; i++ {
		nodes[0].Broadcast(1, []byte{byte(i)})
	}
	nodes[1].Broadcast(1, []byte{1})
	nodes[2].Broadcast(1, []byte{2})
	nodes[2].Broadcast(2, nil)
	net.drain(down)
	for round := 0; round < 4; round++ {
		for id, nd := range nodes {
			if NodeID(id) != victim {
				nd.Tick()
			}
		}
		net.drain(down)
	}
	if len(got[victim]) != 0 {
		t.Fatalf("partitioned node heard %d updates through the partition", len(got[victim]))
	}
	// Partition heals; the victim's own ticks pull the newest of each
	// (origin, kind) — origin 0's third broadcast, not its first two.
	want := map[string]int{"0/1/3": 1, "1/1/1": 1, "2/1/1": 1, "2/2/2": 1}
	for round := 0; round < 6 && len(got[victim]) < len(want); round++ {
		nodes[victim].Tick()
		net.drain(nil)
	}
	if !reflect.DeepEqual(got[victim], want) {
		t.Fatalf("victim healed %v, want %v", got[victim], want)
	}
	if st := nodes[victim].Stats(); st.Repairs == 0 {
		t.Fatalf("heal did not go through the anti-entropy delta path: %+v", st)
	}
}

func TestDedupNeverDoubleApplies(t *testing.T) {
	// A direct adversarial replay: the same update handed to a node many
	// times over every packet kind must deliver exactly once.
	members := []NodeID{1, 2, 3}
	var delivered int
	node := New(Config{
		ID: 2, Members: members, Seed: 9,
		Transport: &memPort{net: newMemNet()},
		Deliver:   func(Update) { delivered++ },
	})
	u := Update{Origin: 1, Seq: 1, Kind: 1, Payload: []byte("clear C1 vector")}
	for i := 0; i < 5; i++ {
		node.Handle(Packet{Kind: PacketPush, From: 1, TTL: 3, Updates: []Update{u}})
		node.Handle(Packet{Kind: PacketDelta, From: 3, Updates: []Update{u}})
	}
	if delivered != 1 {
		t.Fatalf("update applied %d times, want 1", delivered)
	}
	if st := node.Stats(); st.Duplicates != 9 {
		t.Fatalf("dedup counted %d duplicates, want 9", st.Duplicates)
	}
	// A newer update of the same (origin, kind) supersedes it, and then the
	// older one — or one older still, never seen — is a duplicate too.
	node.Handle(Packet{Kind: PacketPush, From: 3, Updates: []Update{{Origin: 1, Seq: 3, Kind: 1}}})
	node.Handle(Packet{Kind: PacketDelta, From: 3, Updates: []Update{u, {Origin: 1, Seq: 2, Kind: 1}}})
	if st := node.Stats(); delivered != 2 || st.Delivered != 2 || st.Duplicates != 11 {
		t.Fatalf("after a newer update and two older ones: applied %d times, stats %+v; want 2 deliveries, 11 duplicates", delivered, st)
	}
	// Seqs start at 1: a seq-0 update of a pair never seen is older than
	// nothing at all, and is a duplicate too.
	node.Handle(Packet{Kind: PacketDelta, From: 3, Updates: []Update{{Origin: 3, Seq: 0, Kind: 1}}})
	if st := node.Stats(); delivered != 2 || st.Duplicates != 12 {
		t.Fatalf("a seq-0 update: applied %d times, stats %+v; want 2 deliveries, 12 duplicates", delivered, st)
	}
}

// asyncNet delivers packets on per-destination goroutines — the -race
// exercise for the locking discipline.
type asyncNet struct {
	mu    sync.Mutex
	nodes map[NodeID]*Node
	wg    sync.WaitGroup
}

func (a *asyncNet) Send(to NodeID, p Packet) {
	p = clonePacket(p)
	a.mu.Lock()
	dst := a.nodes[to]
	a.mu.Unlock()
	if dst == nil {
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		dst.Handle(p)
	}()
}

func (*asyncNet) CopiesOnSend() {}

func TestConcurrentGossipUnderRace(t *testing.T) {
	const n = 8
	net := &asyncNet{nodes: make(map[NodeID]*Node)}
	members := make([]NodeID, n)
	for i := range members {
		members[i] = NodeID(i)
	}
	var mu sync.Mutex
	counts := make(map[NodeID]map[string]int)
	for _, id := range members {
		id := id
		net.mu.Lock()
		net.nodes[id] = New(Config{
			ID: id, Members: members, Seed: 5, Transport: net,
			Deliver: func(u Update) {
				mu.Lock()
				defer mu.Unlock()
				if counts[id] == nil {
					counts[id] = make(map[string]int)
				}
				counts[id][fmt.Sprintf("%d/%d", u.Origin, u.Seq)]++
			},
		})
		net.mu.Unlock()
	}
	var starters sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		starters.Add(1)
		go func() {
			defer starters.Done()
			for j := 0; j < 5; j++ {
				net.nodes[NodeID(i)].Broadcast(1, []byte{byte(i), byte(j)})
			}
		}()
	}
	starters.Wait()
	net.wg.Wait()
	for round := 0; round < 6; round++ {
		for _, nd := range net.nodes {
			nd.Tick()
		}
		net.wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	for id, m := range counts {
		for k, c := range m {
			if c != 1 {
				t.Fatalf("node %d delivered %s %d times", id, k, c)
			}
		}
	}
	// Every member ends up delivered each other origin's fifth update; what
	// it was delivered before that depends on how the epidemics overlapped.
	for _, id := range members {
		for origin := NodeID(0); origin < 4; origin++ {
			if _, ok := counts[id][fmt.Sprintf("%d/5", origin)]; !ok && origin != id {
				t.Fatalf("node %d was never delivered origin %d's newest update: %v", id, origin, counts[id])
			}
		}
	}
}

func TestPacketCodecFixpoint(t *testing.T) {
	pkts := []Packet{
		{Kind: PacketPush, From: 7, TTL: 3, Updates: []Update{
			{Origin: 7, Seq: 1, Kind: 2, Payload: []byte("vector")},
			{Origin: 9, Seq: 44, Kind: 1, Payload: nil},
		}},
		{Kind: PacketDigest, From: 1, Reply: true, Digest: []DigestEntry{{Origin: 2, Kind: 1, High: 9}, {Origin: 2, Kind: 2, High: 4}, {Origin: 5, High: 0}}},
		{Kind: PacketDelta, From: 250, Updates: []Update{{Origin: 3, Seq: 1, Kind: 0, Payload: []byte{0, 1, 2}}}},
	}
	for i, p := range pkts {
		enc := EncodePacket(nil, p)
		got, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("packet %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("packet %d: round-trip mismatch:\nwant %+v\ngot  %+v", i, p, got)
		}
		enc2 := EncodePacket(nil, got)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("packet %d: re-encode differs", i)
		}
	}
	if _, err := DecodePacket([]byte{codecVersion, PacketPush, 0}); err == nil {
		t.Fatalf("truncated packet decoded")
	}
	if _, err := DecodePacket(append(EncodePacket(nil, pkts[1]), 0)); err == nil {
		t.Fatalf("trailing garbage accepted")
	}
}

func TestFanInStaysBounded(t *testing.T) {
	// The sub-all-to-all property the cluster spec asserts: mean copies
	// received per delivered update stays O(fanout), far below N−1.
	const n = 64
	net, nodes := build(t, n, 11, func(NodeID, Update) {})
	for i := 0; i < 20; i++ {
		nodes[i%8].Broadcast(1, []byte{byte(i)})
		net.drain(nil)
	}
	for round := 0; round < 4; round++ {
		for _, nd := range nodes {
			nd.Tick()
		}
		net.drain(nil)
	}
	var updatesRecv, delivered uint64
	for _, nd := range nodes {
		st := nd.Stats()
		updatesRecv += st.UpdatesRecv
		delivered += st.Delivered
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	fanIn := float64(updatesRecv) / float64(delivered)
	bound := float64(3 * nodes[0].Fanout())
	if fanIn > bound {
		t.Fatalf("mean fan-in %.2f exceeds %.0f (fanout %d)", fanIn, bound, nodes[0].Fanout())
	}
	if fanIn >= float64(n-1) {
		t.Fatalf("fan-in %.2f is all-to-all territory", fanIn)
	}
}
