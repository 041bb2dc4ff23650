package tb

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// sliceModel is the unacknowledged set as a slice spliced on every removal —
// the representation the log replaced, kept as the reference it must match.
type sliceModel struct{ unacked []msg.Message }

func (s *sliceModel) onSend(m msg.Message) { s.unacked = append(s.unacked, m) }

func (s *sliceModel) onAck(ack msg.Message) {
	for i, m := range s.unacked {
		if m.To == ack.From && m.ChanSeq == ack.AckSN {
			s.unacked = append(s.unacked[:i], s.unacked[i+1:]...)
			return
		}
	}
}

func (s *sliceModel) snapshot() []msg.Message {
	if len(s.unacked) == 0 {
		return nil
	}
	return slices.Clone(s.unacked)
}

func (s *sliceModel) adopt(stored []msg.Message) { s.unacked = slices.Clone(stored) }

func (s *sliceModel) keep(keep func(msg.Message) bool) {
	kept := s.unacked[:0]
	for _, m := range s.unacked {
		if keep(m) {
			kept = append(kept, m)
		}
	}
	s.unacked = kept
}

// pinnedEntries counts the removed entries the log holds for its newest mark.
func pinnedEntries(l *unackedLog) int {
	n := 0
	for i := range l.buf {
		if e := &l.buf[i]; e.removed != 0 && l.reads(e) {
			n++
		}
	}
	return n
}

// TestUnackedLogMatchesSliceModel drives the log and the slice it replaced
// with the same random operations and holds the log to the model after every
// one: the live set, the newest mark's set (the copy the model took when the
// mark was taken), and the log's size, O(live + marked).
func TestUnackedLogMatchesSliceModel(t *testing.T) {
	dests := []msg.ProcID{msg.P1Act, msg.P1Sdw, msg.P2, 7}
	ops := []string{"send", "ack in order", "ack out of order", "ack duplicated", "mark",
		"reconcile", "drop", "adopt", "commit", "prepare recovery"}
	// Operation weights of a filling and a draining phase, in ops' order: a
	// mark taken late in a fill goes stale over the drain that follows.
	weights := [2][]int{
		{70, 6, 3, 1, 10, 2, 1, 1, 4, 2},
		{10, 45, 20, 6, 0, 6, 4, 1, 4, 4},
	}
	var froze, compacted int // seeds
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, cp := newCP(t, cfgAdapted(), &fakeHost{})
		model := &sliceModel{}
		sent := make(map[msg.ProcID]uint64)
		var mark Mark
		var marked []msg.Message
		hasMark := false
		stored := make(map[uint64][]msg.Message) // committed round → its set
		var acked []msg.Message
		stale := false

		for op := 0; op < 1000; op++ {
			what, r := "", rng.Intn(100)
			for i, w := range weights[(op/200)%2] {
				if r -= w; r < 0 {
					what = ops[i]
					break
				}
			}
			switch what {
			case "send":
				to := dests[rng.Intn(len(dests))]
				sent[to]++
				m := msg.Message{Kind: msg.Internal, From: 9, To: to, SN: uint64(op), ChanSeq: sent[to]}
				cp.OnSend(m)
				model.onSend(m)
			case "ack in order":
				if len(model.unacked) == 0 {
					continue
				}
				to := model.unacked[rng.Intn(len(model.unacked))].To
				i := slices.IndexFunc(model.unacked, func(m msg.Message) bool { return m.To == to })
				ack := msg.Message{Kind: msg.Ack, From: to, AckSN: model.unacked[i].ChanSeq}
				acked = append(acked, ack)
				cp.OnAck(ack)
				model.onAck(ack)
			case "ack out of order":
				if len(model.unacked) == 0 {
					continue
				}
				m := model.unacked[rng.Intn(len(model.unacked))]
				ack := msg.Message{Kind: msg.Ack, From: m.To, AckSN: m.ChanSeq}
				acked = append(acked, ack)
				cp.OnAck(ack)
				model.onAck(ack)
			case "ack duplicated":
				if len(acked) == 0 {
					continue
				}
				ack := acked[rng.Intn(len(acked))]
				cp.OnAck(ack)
				model.onAck(ack)
			case "mark":
				mark, marked, hasMark = cp.MarkUnacked(), model.snapshot(), true
			case "reconcile":
				for _, d := range dests {
					sent[d] -= uint64(rng.Intn(int(min(sent[d], 3)) + 1))
				}
				sentTo := func(to msg.ProcID) uint64 { return sent[to] }
				cp.ReconcileUnacked(sentTo)
				model.keep(func(m msg.Message) bool { return m.ChanSeq <= sentTo(m.To) })
			case "drop":
				to := dests[rng.Intn(len(dests))]
				cp.DropUnacked(to)
				model.keep(func(m msg.Message) bool { return m.To != to })
			case "adopt":
				set := model.snapshot()
				set = set[:rng.Intn(len(set)+1)]
				cp.AdoptUnacked(set)
				model.adopt(set)
			case "commit":
				c := checkpoint.New(checkpoint.Stable, msg.P2)
				c.Unacked = model.snapshot()
				if err := cp.CommitImmediate(c); err != nil {
					t.Fatalf("seed %d op %d: commit: %v", seed, op, err)
				}
				stored[cp.Ndc()] = c.Unacked
			case "prepare recovery":
				round := cp.Ndc() - uint64(rng.Intn(2))
				if _, err := cp.StableAtRound(round); err != nil {
					continue // only the newest round is retained here
				}
				got, err := cp.PrepareRecoveryAt(round)
				if err != nil {
					t.Fatalf("seed %d op %d: PrepareRecoveryAt(%d): %v", seed, op, round, err)
				}
				if !slices.Equal(got.Unacked, stored[round]) {
					t.Fatalf("seed %d op %d: round %d stored %v, want %v", seed, op, round, got.Unacked, stored[round])
				}
				model.adopt(stored[round])
			}

			if got, want := cp.UnackedSnapshot(), model.snapshot(); !slices.Equal(got, want) || cp.UnackedLen() != len(want) {
				t.Fatalf("seed %d op %d (%s): live set %v (len %d), model %v", seed, op, what, got, cp.UnackedLen(), want)
			}
			if hasMark {
				if got := cp.UnackedAt(mark); !slices.Equal(got, marked) {
					t.Fatalf("seed %d op %d (%s): mark reads %v, model copied %v", seed, op, what, got, marked)
				}
			}
			l := &cp.unacked
			live := len(model.unacked)
			if n := len(l.buf); n > staleBase+4*live+len(marked) {
				t.Fatalf("seed %d op %d (%s): log holds %d entries, live %d, marked %d", seed, op, what, n, live, len(marked))
			}
			if p := pinnedEntries(l); p > staleBase+4*live {
				t.Fatalf("seed %d op %d (%s): the mark pins %d acknowledged entries, live %d", seed, op, what, p, live)
			}
			if l.frozen != nil && !stale {
				stale = true
				froze++
			}
		}
		if cp.unacked.next > uint64(len(cp.unacked.buf)) {
			compacted++
		}
	}
	if froze < 100 || compacted < 100 {
		t.Fatalf("of 500 seeds, %d went through a stale mark and %d through a compaction; want 100 each", froze, compacted)
	}
}

// TestOnlyNewestMarkReadable: a mark retired by a newer one panics instead
// of reading a set the log no longer keeps.
func TestOnlyNewestMarkReadable(t *testing.T) {
	_, cp := newCP(t, cfgAdapted(), &fakeHost{})
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 1})
	old := cp.MarkUnacked()
	cp.MarkUnacked()
	defer func() {
		if recover() == nil {
			t.Fatal("reading a retired mark must panic")
		}
	}()
	cp.UnackedAt(old)
}

// BenchmarkUnackedWindow is the unacknowledged log under a cluster node's
// steady load: a 140-entry window, one send and one in-order ack per
// operation, and a volatile checkpoint's mark every eighth. It allocates
// nothing.
func BenchmarkUnackedWindow(b *testing.B) {
	cp := &Checkpointer{}
	const window = 140
	var seq uint64
	step := func(i int) {
		seq++
		cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: seq})
		if seq > window {
			cp.OnAck(msg.Message{Kind: msg.Ack, From: msg.P1Act, AckSN: seq - window})
		}
		if i%8 == 0 {
			cp.MarkUnacked()
		}
	}
	for i := 0; i < 4*window; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
