package mdcd

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
)

// filterModel is the shadow's log filter the binary-search cuts replaced: the
// entries keep selects, in order, without writing into log's backing array.
// A dropped prefix advances the slice; a dropped suffix is cut off with the
// capacity clipped; a kept entry after a dropped one is copied.
func filterModel(log []msg.Message, keep func(msg.Message) bool) []msg.Message {
	for len(log) > 0 && !keep(log[0]) {
		log = log[1:]
	}
	n := 0
	for n < len(log) && keep(log[n]) {
		n++
	}
	if n == len(log) {
		return log
	}
	kept := log[:n:n]
	for _, m := range log[n:] {
		if keep(m) {
			kept = append(kept, m)
		}
	}
	return kept
}

// TestLogCutsMatchFilterModel: on 500 seeds of random logs ascending in SN
// and ChanSeq (some of them already advanced past a reclaimed prefix, with
// spare capacity), each cut at random thresholds, dropThroughSN and
// keepThroughSeq return what the filtering model returns — the same entries,
// the same capacity and, where anything is left, the same backing array.
func TestLogCutsMatchFilterModel(t *testing.T) {
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
		log := backing[rng.Intn(n+1):]
		for k := 0; k < 8; k++ {
			threshold := uint64(rng.Int63n(int64(sn) + 3))
			same(t, seed, "dropThroughSN", dropThroughSN(log, threshold),
				filterModel(log, func(m msg.Message) bool { return m.SN > threshold }))
			same(t, seed, "keepThroughSeq", keepThroughSeq(log, threshold),
				filterModel(log, func(m msg.Message) bool { return m.ChanSeq <= threshold }))
		}
	}
}

func same(t *testing.T, seed int64, cut string, got, want []msg.Message) {
	t.Helper()
	if !slices.Equal(got, want) || cap(got) != cap(want) {
		t.Fatalf("seed %d: %s = %v (cap %d), model %v (cap %d)", seed, cut, got, cap(got), want, cap(want))
	}
	if len(got) > 0 && &got[0] != &want[0] {
		t.Fatalf("seed %d: %s copied the log; the model keeps its backing array", seed, cut)
	}
}
