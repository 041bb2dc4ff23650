package mdcd

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// filterModel is the shadow's log filter the binary-search cuts replaced:
// the entries keep selects, in order.
func filterModel(log []msg.Message, keep func(msg.Message) bool) []msg.Message {
	var kept []msg.Message
	for _, m := range log {
		if keep(m) {
			kept = append(kept, m)
		}
	}
	return kept
}

// TestLogCutsMatchFilterModel: on 500 seeds of random logs ascending in SN
// and ChanSeq (some of them starting past a reclaimed prefix of their
// backing array, with spare capacity), each cut at random thresholds,
// dropThroughSN and keepThroughSeq keep the entries the filtering model
// keeps. They work in place: wherever anything is left, the result starts at
// the input's first element, and a cut allocates nothing.
func TestLogCutsMatchFilterModel(t *testing.T) {
	cuts := []struct {
		name string
		cut  func([]msg.Message, uint64) []msg.Message
		keep func(m msg.Message, threshold uint64) bool
	}{
		{"dropThroughSN", dropThroughSN, func(m msg.Message, sn uint64) bool { return m.SN > sn }},
		{"keepThroughSeq", keepThroughSeq, func(m msg.Message, seq uint64) bool { return m.ChanSeq <= seq }},
	}
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(24)
		backing := make([]msg.Message, n, n+rng.Intn(4))
		var sn, seq uint64
		for i := range backing {
			sn += 1 + uint64(rng.Intn(3))
			seq += 1 + uint64(rng.Intn(2))
			backing[i] = msg.Message{Kind: msg.Internal, To: msg.P2, SN: sn, ChanSeq: seq}
		}
		off := rng.Intn(n + 1)
		log := backing[off:]
		// work is the log each cut is given, placed in an array of its own
		// as log is in backing: a cut rewrites its input.
		work := make([]msg.Message, cap(backing))[off:n]
		for k := 0; k < 8; k++ {
			threshold := uint64(rng.Int63n(int64(sn) + 3))
			for _, c := range cuts {
				want := filterModel(log, func(m msg.Message) bool { return c.keep(m, threshold) })
				copy(work, log)
				got := c.cut(work, threshold)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: %s(%d) = %v, model %v", seed, c.name, threshold, got, want)
				}
				if len(got) > 0 && &got[0] != &work[0] {
					t.Fatalf("seed %d: %s(%d) moved the log; a cut works in place", seed, c.name, threshold)
				}
				cut := func() {
					copy(work, log)
					c.cut(work, threshold)
				}
				if allocs := testing.AllocsPerRun(1, cut); allocs != 0 {
					t.Fatalf("seed %d: %s(%d) allocates %.1f times", seed, c.name, threshold, allocs)
				}
			}
		}
	}
}

// TestShadowLogCycleAllocatesNothing: once its logs are warm, an un-promoted
// shadow's cycle of suppressed sends, a volatile checkpoint that stores them
// and a validation that reclaims them allocates nothing: the logs reuse the
// memory a reclaim frees, and the checkpoint copies its pending entries into
// the slot's own buffer.
func TestShadowLogCycleAllocatesNothing(t *testing.T) {
	p, _ := newTBProcess(t, msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), false)
	cycle := func() {
		for i := 0; i < 6; i++ {
			p.EmitInternal()
		}
		p.EmitExternal()
		p.takeVolatile(checkpoint.Type1)
		p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, To: msg.P1Sdw, ValidSN: p.msgSN})
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if c, _ := p.Volatile.Latest(); len(c.Unacked) == 0 || p.MsgLogLen() != 0 {
		t.Fatalf("the checkpoint stored %d suppressed entries and %d stay logged, want some and none", len(c.Unacked), p.MsgLogLen())
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a suppress, checkpoint and reclaim cycle allocates %.1f times", got)
	}
}
