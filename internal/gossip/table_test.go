package gossip

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// recorder is a transport that keeps a copy of what it is handed.
type recorder struct{ sent []envelope }

func (r *recorder) Send(to NodeID, p Packet) {
	r.sent = append(r.sent, envelope{to: to, p: clonePacket(p)})
}

func (*recorder) CopiesOnSend() {}

// sent is what a stage holds for the transport: its envelopes as packets,
// nil for none.
func sent(s *stage) []envelope {
	if s == nil || len(s.out) == 0 {
		return nil
	}
	out := make([]envelope, len(s.out))
	for i := range s.out {
		out[i] = envelope{to: s.out[i].to, p: s.packet(i)}
	}
	return out
}

// pair names one (origin, kind) stream.
type pair struct {
	origin NodeID
	kind   uint8
}

// model is what a member holds, as a map: the newest update of each (origin,
// kind) seen. It is the reference the sorted newest slice is held to.
type model map[pair]Update

func (m model) fresh(u Update) bool { return u.Seq > m[pair{u.Origin, u.Kind}].Seq }

// digest is the model's digest: every pair, (origin, kind)-sorted.
func (m model) digest() []DigestEntry {
	var d []DigestEntry
	for k, u := range m {
		d = append(d, DigestEntry{Origin: k.origin, Kind: k.kind, High: u.Seq})
	}
	slices.SortFunc(d, func(a, b DigestEntry) int {
		return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Kind, b.Kind))
	})
	return d
}

// arrivals is a multi-origin workload the way a lossy epidemic delivers it:
// each origin's seqs 1..total, each of kind 1 or 2 at random, locally
// shuffled, some held back a long way, whole bursts arriving far ahead of
// everything before them, one copy in four duplicated later — and the
// origins interleaved.
func arrivals(rng *rand.Rand, lengths map[NodeID]int) []Update {
	type arrival struct {
		u  Update
		at int
	}
	var order []arrival
	for _, origin := range []NodeID{2, 5, 9, 14, 30, 31, 40} { // fixed order: map iteration would unseed the run
		total, ok := lengths[origin]
		if !ok {
			continue
		}
		stream := make([]arrival, 0, total+total/4)
		for seq := 1; seq <= total; seq++ {
			at := seq + rng.Intn(8)
			if rng.Intn(20) == 0 {
				at += rng.Intn(60)
			}
			kind := uint8(1 + rng.Intn(2))
			stream = append(stream, arrival{Update{Origin: origin, Seq: uint64(seq), Kind: kind,
				Payload: binary.LittleEndian.AppendUint64([]byte{kind}, uint64(seq))}, at})
		}
		for burst := 0; burst < 3; burst++ {
			start := rng.Intn(total)
			for i := start; i < min(total, start+1+rng.Intn(12)); i++ {
				stream[i].at = start - 60
			}
		}
		for i := 0; i < total/4; i++ {
			dup := stream[rng.Intn(total)]
			stream = append(stream, arrival{dup.u, dup.at + rng.Intn(60)})
		}
		sort.SliceStable(stream, func(i, j int) bool { return stream[i].at < stream[j].at })
		order = append(order, stream...)
	}
	// Interleave: shuffle the origins' turns, keeping each origin's own order.
	turns := make([]NodeID, len(order))
	for i, a := range order {
		turns[i] = a.u.Origin
	}
	rng.Shuffle(len(turns), func(i, j int) { turns[i], turns[j] = turns[j], turns[i] })
	next := make(map[NodeID]int)
	start := make(map[NodeID]int)
	for i := len(order) - 1; i >= 0; i-- {
		start[order[i].u.Origin] = i
	}
	out := make([]Update, len(order))
	for i, origin := range turns {
		out[i] = order[start[origin]+next[origin]].u
		next[origin]++
	}
	return out
}

var tableMembers = []NodeID{40, 2, 31, 5, 9, 30, 14} // unsorted on purpose; 40 never broadcasts

// TestKeptDigestMatchesRebuilt feeds a member a shuffled, duplicated,
// two-kind, five-origin workload, a stranger's updates (origin 7) mixed in,
// and after every arrival holds it to the map model: it delivers exactly the
// copies newer than the one the model holds for their (origin, kind), holds
// the model's updates, and summarizes them in the model's digest.
func TestKeptDigestMatchesRebuilt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var delivered []Update
		n := New(Config{ID: 9, Members: tableMembers, Transport: nullTransport{}, Deliver: func(u Update) { delivered = append(delivered, u) }})
		m := make(model)
		workload := arrivals(rng, map[NodeID]int{2: 60, 5: 9, 14: 200, 30: 1, 31: 120})
		strangers := 0
		for step, u := range workload {
			if step%17 == 0 {
				n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{{Origin: 7, Seq: uint64(step + 1)}}})
				strangers++
			}
			delivered = delivered[:0]
			n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{u}})
			if fresh := m.fresh(u); fresh != (len(delivered) == 1) || len(delivered) > 1 {
				t.Fatalf("seed %d step %d: (%d, kind %d, seq %d) delivered %d times; newer than the held seq %d: %v",
					seed, step, u.Origin, u.Kind, u.Seq, len(delivered), m[pair{u.Origin, u.Kind}].Seq, fresh)
			}
			if m.fresh(u) {
				m[pair{u.Origin, u.Kind}] = u
			}
			want := m.digest()
			if got := n.appendDigest(nil); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: digest %v, the model's %v", seed, step, got, want)
			}
			for _, h := range n.newest {
				if !reflect.DeepEqual(h, m[pair{h.Origin, h.Kind}]) {
					t.Fatalf("seed %d step %d: holds %+v, the model %+v", seed, step, h, m[pair{h.Origin, h.Kind}])
				}
			}
		}
		if st := n.Stats(); st.Delivered+st.Duplicates+uint64(strangers) != st.UpdatesRecv {
			t.Fatalf("seed %d: %d delivered + %d duplicates + %d strangers ≠ %d received", seed, st.Delivered, st.Duplicates, strangers, st.UpdatesRecv)
		}
	}
}

// oldRepair is repairLocked over the map model: every pair's known seq is the
// highest a digest entry names for it (entries naming a non-member are
// ignored), the delta is every held update newer than that, (origin,
// kind)-sorted, and a digest showing the digester ahead anywhere is answered
// with the model's own digest unless it is itself a reply.
func oldRepair(n *Node, m model, p Packet) []envelope {
	known := make(map[pair]uint64)
	behind := false
	for _, e := range p.Digest {
		if n.rank(e.Origin) < 0 {
			continue
		}
		k := pair{e.Origin, e.Kind}
		known[k] = max(known[k], e.High)
		behind = behind || e.High > m[k].Seq
	}
	var delta []Update
	for _, e := range m.digest() {
		if k := (pair{e.Origin, e.Kind}); m[k].Seq > known[k] {
			delta = append(delta, m[k])
		}
	}
	var out []envelope
	if len(delta) > 0 {
		out = append(out, envelope{to: p.From, p: Packet{Kind: PacketDelta, From: n.id, Updates: delta}})
	}
	if behind && !p.Reply {
		out = append(out, envelope{to: p.From, p: Packet{Kind: PacketDigest, From: n.id, Digest: m.digest(), Reply: true}})
	}
	return out
}

// TestRepairMatchesOldImplementation: repairLocked — one pass over the digest
// that resolves each entry in the sorted newest slice, then one over the
// slice — answers every digest, sorted, shuffled, naming a pair twice and
// bearing a stranger's entries, with exactly the envelopes the map-based
// repair stages.
func TestRepairMatchesOldImplementation(t *testing.T) {
	const stranger NodeID = 7
	rng := rand.New(rand.NewSource(1))
	n := New(Config{ID: 9, Members: tableMembers, Transport: nullTransport{}})
	m := make(model)
	workload := arrivals(rng, map[NodeID]int{2: 60, 5: 9, 14: 200, 31: 120})
	workload = append([]Update{{Origin: 30, Seq: 4, Kind: 2}}, workload...)
	deltas, digests := 0, 0
	for step, u := range workload {
		n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{u}})
		if m.fresh(u) {
			m[pair{u.Origin, u.Kind}] = u
		}
		if step%5 != 0 && step < len(workload)-3 {
			continue
		}
		for variant := 0; variant < 12; variant++ {
			// The asker's view: each pair we hold (and member 40's, which we
			// do not) at a seq around ours, or left out.
			var digest []DigestEntry
			for _, id := range []NodeID{2, 5, 9, 14, 30, 31, 40} {
				for kind := uint8(1); kind <= 2; kind++ {
					var high uint64
					if u, ok := m[pair{id, kind}]; ok {
						high = u.Seq - min(u.Seq, uint64(rng.Intn(40))) + uint64(rng.Intn(3))
					} else {
						high = uint64(rng.Intn(2) * 5)
					}
					if rng.Intn(4) > 0 {
						digest = append(digest, DigestEntry{Origin: id, Kind: kind, High: high})
					}
				}
			}
			if variant%4 >= 2 { // unsorted
				rng.Shuffle(len(digest), func(i, j int) { digest[i], digest[j] = digest[j], digest[i] })
			}
			if variant%4 == 3 && len(digest) > 0 { // a pair twice, at another seq
				again := digest[rng.Intn(len(digest))]
				again.High /= 2
				digest = slices.Insert(digest, rng.Intn(len(digest)+1), again)
			}
			if variant >= 8 { // stranger-bearing
				digest = slices.Insert(digest, rng.Intn(len(digest)+1), DigestEntry{Origin: stranger, Kind: 1, High: uint64(rng.Intn(3))})
			}
			p := Packet{Kind: PacketDigest, From: 5, Digest: digest, Reply: variant%2 == 1}
			got, want := sent(n.repairLocked(p)), oldRepair(n, m, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d variant %d: digest %v (reply %v)\n got %s\nwant %s", step, variant, digest, p.Reply, describe(got), describe(want))
			}
			for _, e := range got {
				if e.p.Kind == PacketDelta {
					deltas++
				} else {
					digests++
				}
			}
		}
	}
	if deltas == 0 || digests == 0 {
		t.Fatalf("%d deltas and %d reply digests compared; the workload must produce both", deltas, digests)
	}
}

// describe prints staged envelopes compactly: updates as origin/kind/seq.
func describe(out []envelope) string {
	s := ""
	for _, e := range out {
		s += fmt.Sprintf("{to %d kind %d reply %v digest %v updates", e.to, e.p.Kind, e.p.Reply, e.p.Digest)
		for _, u := range e.p.Updates {
			s += fmt.Sprintf(" %d/%d/%d", u.Origin, u.Kind, u.Seq)
		}
		s += "} "
	}
	return s
}

// The simulator delivers a packet after its sender has moved on: a digest
// handed to the transport, and copied by it as Send's contract asks, must not
// change when the node keeps more or stages its next digest.
func TestHandedOutDigestIsFrozen(t *testing.T) {
	rec := &recorder{}
	n := New(Config{ID: 9, Members: tableMembers, Seed: 3, Transport: rec})
	push := func(origin NodeID, kind uint8, seq uint64) {
		n.Handle(Packet{Kind: PacketPush, From: origin, Updates: []Update{{Origin: origin, Seq: seq, Kind: kind}}})
	}
	push(14, 1, 1)
	push(31, 1, 1)
	n.Tick()
	n.Handle(Packet{Kind: PacketDigest, From: 5, Digest: []DigestEntry{{Origin: 14, Kind: 1, High: 9}}}) // behind: answers with its digest
	var handed [][]DigestEntry
	for _, e := range rec.sent {
		if e.p.Kind == PacketDigest {
			handed = append(handed, e.p.Digest)
		}
	}
	want := []DigestEntry{{Origin: 14, Kind: 1, High: 1}, {Origin: 31, Kind: 1, High: 1}}
	if len(handed) != 2 {
		t.Fatalf("%d digests handed to the transport, want the tick's and the reply", len(handed))
	}
	push(14, 1, 2) // replaces an entry in place
	push(14, 2, 3) // enters between two
	push(2, 1, 1)  // enters ahead of all
	for i, d := range handed {
		if !slices.Equal(d, want) {
			t.Errorf("digest %d handed out earlier now reads %v, was %v", i, d, want)
		}
	}
	if now := []DigestEntry{{2, 1, 1}, {14, 1, 2}, {14, 2, 3}, {31, 1, 1}}; !slices.Equal(n.appendDigest(nil), now) {
		t.Errorf("digest %v, want %v", n.appendDigest(nil), now)
	}
}

// Membership is closed: updates and digest entries naming a non-member are
// counted as received and otherwise ignored, and a digest from a non-member is
// not answered (the answer would be addressed to it).
func TestStrangersAreIgnored(t *testing.T) {
	rec := &recorder{}
	delivered := 0
	n := New(Config{ID: 9, Members: tableMembers, Seed: 3, Transport: rec, Deliver: func(Update) { delivered++ }})
	n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{{Origin: 14, Seq: 1, Kind: 1}}})
	rec.sent = nil
	before := n.Stats()

	n.Handle(Packet{Kind: PacketPush, From: 5, TTL: 3, Updates: []Update{{Origin: 7, Seq: 1}, {Origin: 7, Seq: 1}}})
	n.Handle(Packet{Kind: PacketDelta, From: 5, Updates: []Update{{Origin: 65535, Seq: 9}}})
	n.Handle(Packet{Kind: PacketDigest, From: 5, Digest: []DigestEntry{{Origin: 7, Kind: 1, High: 4}, {Origin: 14, Kind: 1, High: 1}}})
	n.Handle(Packet{Kind: PacketDigest, From: 7, Digest: []DigestEntry{{Origin: 14, Kind: 1, High: 0}, {Origin: 31, Kind: 1, High: 2}}})

	after := n.Stats()
	if delivered != 1 || after.Delivered != before.Delivered || after.Duplicates != before.Duplicates || after.Repairs != before.Repairs {
		t.Errorf("stranger updates changed delivery: delivered %d, stats %+v → %+v", delivered, before, after)
	}
	if after.PacketsRecv != before.PacketsRecv+4 || after.UpdatesRecv != before.UpdatesRecv+3 || after.DigestsRecv != before.DigestsRecv+2 {
		t.Errorf("received counters %+v → %+v, want +4 packets, +3 updates, +2 digests", before, after)
	}
	if len(rec.sent) != 0 {
		t.Errorf("strangers drew %d transmissions: %+v", len(rec.sent), rec.sent)
	}
	if want := []DigestEntry{{Origin: 14, Kind: 1, High: 1}}; !slices.Equal(n.appendDigest(nil), want) {
		t.Errorf("digest %v: want %v", n.appendDigest(nil), want)
	}
}
