package gossip

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// recorder is a transport that keeps what it is handed.
type recorder struct{ sent []envelope }

func (r *recorder) Send(to NodeID, p Packet) { r.sent = append(r.sent, envelope{to: to, p: p}) }

// oldOrigins is the representation the rank table replaced: a map holding the
// state of every origin ever recorded (a member never recorded is absent).
func oldOrigins(n *Node) map[NodeID]*originState {
	m := make(map[NodeID]*originState)
	for _, e := range n.digest {
		m[e.Origin] = &n.origins[n.rank(e.Origin)]
	}
	return m
}

// oldDigest is digestLocked as it was: a map walk, a sort, one entry each.
func oldDigest(origins map[NodeID]*originState) []DigestEntry {
	ids := make([]NodeID, 0, len(origins))
	for id := range origins {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]DigestEntry, 0, len(origins)+1)
	for _, origin := range ids {
		out = append(out, DigestEntry{Origin: origin, High: origins[origin].high})
	}
	return out
}

// oldRepair is repairLocked as it was at 35874ea, over the map: for each
// origin it knows but the digest does not name, a linear scan of the digest.
func oldRepair(n *Node, origins map[NodeID]*originState, p Packet) []envelope {
	var delta []Update
	behind := false
	for _, e := range p.Digest {
		st := origins[e.Origin]
		if st == nil {
			if e.High > 0 {
				behind = true
			}
			continue
		}
		if e.High > st.high {
			behind = true
		}
		for seq := max(e.High+1, st.floor(n.retain)); seq <= st.high && len(delta) < maxDeltaUpdates; seq++ {
			delta = append(delta, *st.at(seq))
		}
	}
	for _, e := range oldDigest(origins) {
		if len(delta) >= maxDeltaUpdates {
			break
		}
		if slices.ContainsFunc(p.Digest, func(d DigestEntry) bool { return d.Origin == e.Origin }) {
			continue
		}
		st := origins[e.Origin]
		for seq := st.floor(n.retain); seq <= st.high && len(delta) < maxDeltaUpdates; seq++ {
			delta = append(delta, *st.at(seq))
		}
	}
	var out []envelope
	if len(delta) > 0 {
		out = append(out, envelope{to: p.From, p: Packet{Kind: PacketDelta, From: n.id, Updates: delta}})
	}
	if behind && !p.Reply {
		out = append(out, envelope{to: p.From, p: Packet{Kind: PacketDigest, From: n.id, Digest: oldDigest(origins), Reply: true}})
	}
	return out
}

// multiOriginArrivals interleaves arrivals() streams — shuffled, duplicated,
// gap-ridden — of several origins, each cut at its own length.
func multiOriginArrivals(rng *rand.Rand, lengths map[NodeID]int, retain int) []Update {
	streams := make(map[NodeID][]uint64)
	var order []NodeID
	for _, origin := range []NodeID{2, 5, 9, 14, 30, 31, 40} { // fixed order: map iteration would unseed the run
		if total, ok := lengths[origin]; ok {
			streams[origin] = arrivals(rng, total, retain)
			for range streams[origin] {
				order = append(order, origin)
			}
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	out := make([]Update, len(order))
	for i, origin := range order {
		seq := streams[origin][0]
		streams[origin] = streams[origin][1:]
		out[i] = Update{Origin: origin, Seq: seq, Kind: 1, Payload: binary.LittleEndian.AppendUint64(nil, seq)}
	}
	return out
}

var tableMembers = []NodeID{40, 2, 31, 5, 9, 30, 14} // unsorted on purpose; 40 never broadcasts

// After every arrival of a multi-origin workload the kept digest is the one
// the old implementation rebuilt, and the copy handed out equals it. A
// stranger's updates (origin 7) are mixed in and must leave no trace.
func TestKeptDigestMatchesRebuilt(t *testing.T) {
	for _, retain := range []int{3, 4096} {
		rng := rand.New(rand.NewSource(int64(retain)))
		n := New(Config{ID: 9, Members: tableMembers, Retain: retain, Transport: nullTransport{}})
		// The model: the old map, maintained the old way (an origin enters at
		// its first record, ahead of a gap or not).
		model := make(map[NodeID]*refOrigin)
		workload := multiOriginArrivals(rng, map[NodeID]int{2: 60, 5: 9, 14: 200, 30: 1, 31: 120}, retain)
		for step, u := range workload {
			if step%17 == 0 {
				n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{{Origin: 7, Seq: uint64(step + 1)}}})
			}
			n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{u}})
			ref := model[u.Origin]
			if ref == nil {
				ref = &refOrigin{floor: 1, updates: make(map[uint64]Update)}
				model[u.Origin] = ref
			}
			if !ref.seen(u.Seq) {
				ref.record(u, retain)
			}
			var want []DigestEntry
			for _, id := range []NodeID{2, 5, 9, 14, 30, 31, 40} {
				if ref := model[id]; ref != nil {
					want = append(want, DigestEntry{Origin: id, High: ref.high})
				}
			}
			if !slices.Equal(n.digest, want) {
				t.Fatalf("retain %d step %d (%d/%d): kept digest %v, rebuilt %v", retain, step, u.Origin, u.Seq, n.digest, want)
			}
			if got := oldDigest(oldOrigins(n)); !slices.Equal(got, want) {
				t.Fatalf("retain %d step %d: table rebuilt the old way %v, model %v", retain, step, got, want)
			}
			if got := n.digestLocked(); !slices.Equal(got, want) || (len(got) > 0 && &got[0] == &n.digest[0]) {
				t.Fatalf("retain %d step %d: digestLocked = %v (aliased: %v), want a copy of %v", retain, step, got, len(got) > 0 && &got[0] == &n.digest[0], want)
			}
		}
		if st := n.Stats(); st.Delivered+st.Duplicates+uint64(len(workload)+16)/17 != st.UpdatesRecv {
			t.Fatalf("retain %d: %d delivered + %d duplicates + the strangers ≠ %d received", retain, st.Delivered, st.Duplicates, st.UpdatesRecv)
		}
	}
}

// repairLocked answers every digest — sorted, shuffled, naming an origin
// twice, with and without the 128-update cap biting — with exactly the
// envelopes the old implementation staged. The one defined difference is the
// stranger rule: entries naming a non-member are ignored, so a digest bearing
// them is answered as the old implementation answers it without them.
func TestRepairMatchesOldImplementation(t *testing.T) {
	const stranger NodeID = 7
	for _, retain := range []int{3, 4096} {
		rng := rand.New(rand.NewSource(int64(retain) + 1))
		n := New(Config{ID: 9, Members: tableMembers, Retain: retain, Transport: nullTransport{}})
		lengths := map[NodeID]int{2: 60, 5: 9, 14: 200, 31: 120}
		workload := multiOriginArrivals(rng, lengths, retain)
		workload = append([]Update{{Origin: 30, Seq: 4}}, workload...) // origin 30: known, nothing contiguous ever (High 0)
		capped, uncapped := 0, 0
		for step, u := range workload {
			if !n.seen(u.Origin, u.Seq) {
				n.record(u)
			}
			if step%5 != 0 && step < len(workload)-3 {
				continue
			}
			origins := oldOrigins(n)
			for variant := 0; variant < 12; variant++ {
				// The asker's view: each origin we know (and member 40, which we
				// do not) at a high-water around ours, or left out.
				var digest []DigestEntry
				for _, id := range []NodeID{2, 5, 9, 14, 30, 31, 40} {
					var high uint64
					if st := origins[id]; st != nil {
						high = st.high - min(st.high, uint64(rng.Intn(40))) + uint64(rng.Intn(3))
					} else {
						high = uint64(rng.Intn(2) * 5)
					}
					if rng.Intn(4) > 0 {
						digest = append(digest, DigestEntry{Origin: id, High: high})
					}
				}
				if variant%4 >= 2 { // unsorted
					rng.Shuffle(len(digest), func(i, j int) { digest[i], digest[j] = digest[j], digest[i] })
				}
				if variant%4 == 3 && len(digest) > 0 { // an origin twice, at another high-water
					again := digest[rng.Intn(len(digest))]
					again.High /= 2
					digest = slices.Insert(digest, rng.Intn(len(digest)+1), again)
				}
				known := slices.Clone(digest)
				if variant >= 8 { // stranger-bearing
					digest = slices.Insert(digest, rng.Intn(len(digest)+1), DigestEntry{Origin: stranger, High: uint64(rng.Intn(3))})
				}
				reply := variant%2 == 1
				got := n.repairLocked(Packet{Kind: PacketDigest, From: 5, Digest: digest, Reply: reply})
				want := oldRepair(n, origins, Packet{Kind: PacketDigest, From: 5, Digest: known, Reply: reply})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("retain %d step %d variant %d: digest %v (reply %v)\n got %s\nwant %s", retain, step, variant, digest, reply, describe(got), describe(want))
				}
				if len(got) > 0 && got[0].p.Kind == PacketDelta {
					if len(got[0].p.Updates) == maxDeltaUpdates {
						capped++
					} else {
						uncapped++
					}
				}
			}
		}
		if uncapped == 0 || (retain > maxDeltaUpdates && capped == 0) {
			t.Fatalf("retain %d: %d capped and %d uncapped deltas compared; the workload must produce both", retain, capped, uncapped)
		}
	}
}

// describe prints staged envelopes compactly: updates as origin/seq.
func describe(out []envelope) string {
	s := ""
	for _, e := range out {
		s += fmt.Sprintf("{to %d kind %d reply %v digest %v updates", e.to, e.p.Kind, e.p.Reply, e.p.Digest)
		for _, u := range e.p.Updates {
			s += fmt.Sprintf(" %d/%d", u.Origin, u.Seq)
		}
		s += "} "
	}
	return s
}

// The simulator delivers a packet, by value, after its sender has moved on: a
// digest handed to the transport must not change when the node records more.
func TestHandedOutDigestIsFrozen(t *testing.T) {
	rec := &recorder{}
	n := New(Config{ID: 9, Members: tableMembers, Seed: 3, Transport: rec})
	push := func(origin NodeID, seq uint64) {
		n.Handle(Packet{Kind: PacketPush, From: origin, Updates: []Update{{Origin: origin, Seq: seq}}})
	}
	push(14, 1)
	push(31, 1)
	n.Tick()
	n.Handle(Packet{Kind: PacketDigest, From: 5, Digest: []DigestEntry{{Origin: 14, High: 9}}}) // behind: answers with its digest
	var handed [][]DigestEntry
	for _, e := range rec.sent {
		if e.p.Kind == PacketDigest {
			handed = append(handed, e.p.Digest)
		}
	}
	want := []DigestEntry{{Origin: 14, High: 1}, {Origin: 31, High: 1}}
	if len(handed) != 2 {
		t.Fatalf("%d digests handed to the transport, want the tick's and the reply", len(handed))
	}
	push(14, 2) // raises an entry in place
	push(2, 1)  // enters ahead of both
	push(40, 3) // enters behind both, over a gap
	for i, d := range handed {
		if !slices.Equal(d, want) {
			t.Errorf("digest %d handed out earlier now reads %v, was %v", i, d, want)
		}
	}
	if now := []DigestEntry{{2, 1}, {14, 2}, {31, 1}, {40, 0}}; !slices.Equal(n.digest, now) {
		t.Errorf("kept digest %v, want %v", n.digest, now)
	}
}

// Membership is closed: updates and digest entries naming a non-member are
// counted as received and otherwise ignored, and a digest from a non-member is
// not answered (the answer would be addressed to it).
func TestStrangersAreIgnored(t *testing.T) {
	rec := &recorder{}
	delivered := 0
	n := New(Config{ID: 9, Members: tableMembers, Seed: 3, Transport: rec, Deliver: func(Update) { delivered++ }})
	n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{{Origin: 14, Seq: 1}}})
	rec.sent = nil
	before := n.Stats()

	n.Handle(Packet{Kind: PacketPush, From: 5, TTL: 3, Updates: []Update{{Origin: 7, Seq: 1}, {Origin: 7, Seq: 1}}})
	n.Handle(Packet{Kind: PacketDelta, From: 5, Updates: []Update{{Origin: 65535, Seq: 9}}})
	n.Handle(Packet{Kind: PacketDigest, From: 5, Digest: []DigestEntry{{Origin: 7, High: 4}, {Origin: 14, High: 1}}})
	n.Handle(Packet{Kind: PacketDigest, From: 7, Digest: []DigestEntry{{Origin: 14, High: 0}, {Origin: 31, High: 2}}})

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
	if want := []DigestEntry{{Origin: 14, High: 1}}; !slices.Equal(n.digest, want) || len(n.ahead) != 0 {
		t.Errorf("digest %v, %d ahead: want %v and none", n.digest, len(n.ahead), want)
	}
}
