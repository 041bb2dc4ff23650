package cluster

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/msg"
)

func TestAssignLowering(t *testing.T) {
	topo := Ring(3, 2, 100, 50, at.Perfect())
	asg, err := Assign(topo)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	// C1 guarded: active 10, shadow 11. C2 guarded: active 12, shadow 13.
	// C3 unguarded: active 14.
	want := []struct {
		comp   gmdcd.ComponentID
		active uint8
		shadow uint8 // 0 = none
	}{{1, 10, 11}, {2, 12, 13}, {3, 14, 0}}
	for _, w := range want {
		if got := asg.Active[w.comp]; uint8(got) != w.active {
			t.Errorf("Active[%d] = %d, want %d", w.comp, got, w.active)
		}
		sid, ok := asg.Shadow[w.comp]
		if w.shadow == 0 {
			if ok {
				t.Errorf("Shadow[%d] = %d, want none", w.comp, sid)
			}
			continue
		}
		if !ok || uint8(sid) != w.shadow {
			t.Errorf("Shadow[%d] = %d (ok=%v), want %d", w.comp, sid, ok, w.shadow)
		}
		if !asg.IsShadow[sid] {
			t.Errorf("IsShadow[%d] = false", sid)
		}
	}
	if len(asg.Nodes) != 5 {
		t.Fatalf("Nodes = %v, want 5 entries", asg.Nodes)
	}
	for i := 1; i < len(asg.Nodes); i++ {
		if asg.Nodes[i] <= asg.Nodes[i-1] {
			t.Fatalf("Nodes not ascending: %v", asg.Nodes)
		}
	}
}

func TestAssignRejectsOversizedTopology(t *testing.T) {
	if _, err := Assign(Ring(130, 130, 1, 1, at.Perfect())); err == nil {
		t.Fatal("Assign accepted a topology needing 260 nodes")
	}
}

func TestConfigRejectsCrashChaos(t *testing.T) {
	cfg := Config{
		Topology: Ring(3, 1, 100, 50, at.Perfect()),
		Chaos: chaos.Spec{
			Crashes: []chaos.Crash{{Victim: 10, At: time.Millisecond}},
		},
	}
	if _, err := NewSim(cfg); err == nil {
		t.Fatal("NewSim accepted crash chaos")
	}
}

func TestPassedATCodecRoundTrip(t *testing.T) {
	comps := newSlots(1, 3, 9, 12)
	vec := sparseVec(comps, map[gmdcd.ComponentID]uint64{3: 17, 1: 4, 9: 250}) // C12 absent
	buf := encodePassedAT(7, 3, comps, vec)
	if want := 12 + 10*3; len(buf) != want {
		t.Fatalf("payload is %d bytes, want %d (absent slots have no entry)", len(buf), want)
	}
	got := make([]uint64, len(comps.ids))
	epoch, from, err := mergePassedAT(buf, comps, got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if epoch != 7 || from != 3 {
		t.Fatalf("epoch=%d from=%d, want 7, 3", epoch, from)
	}
	if !slices.Equal(got, vec) {
		t.Fatalf("vector = %v, want %v", got, vec)
	}
	// Reading merges: entries only ever raise what the destination holds.
	got[comps.of(3)] = 99
	if _, _, err := mergePassedAT(buf, comps, got); err != nil || got[comps.of(3)] != 99 || got[comps.of(9)] != 250 {
		t.Fatalf("merge into a populated vector = %v (err %v)", got, err)
	}
}

func TestPassedATCodecRejectsMalformed(t *testing.T) {
	comps := newSlots(2, 4)
	good := encodePassedAT(1, 2, comps, sparseVec(comps, map[gmdcd.ComponentID]uint64{4: 9}))
	foreign := slices.Clone(good)
	foreign[12] = 5 // the entry now names C5, which the topology does not have
	for _, b := range [][]byte{nil, good[:5], good[:len(good)-1], append(slices.Clone(good), 0), foreign} {
		if _, _, _, err := readPassedAT(b, comps, make([]uint64, len(comps.ids)), nil); err == nil {
			t.Fatalf("readPassedAT accepted malformed payload %x", b)
		}
	}
}

// A duplicate entry used to overwrite an earlier higher value (last one won).
func TestPassedATDuplicateEntriesMergeByMax(t *testing.T) {
	comps := newSlots(2, 4)
	for _, order := range [][2]uint64{{9, 3}, {3, 9}} {
		b := passedATBytes(1, 2, [][2]uint64{{4, order[0]}, {4, order[1]}})
		got := make([]uint64, len(comps.ids))
		if _, _, err := mergePassedAT(b, comps, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if want := []uint64{0, 9}; !slices.Equal(got, want) {
			t.Fatalf("entries %v decoded to %v, want %v", order, got, want)
		}
	}
}

func TestResyncCodecRoundTrip(t *testing.T) {
	epoch, err := decodeResync(encodeResync(42))
	if err != nil || epoch != 42 {
		t.Fatalf("round trip: epoch=%d err=%v", epoch, err)
	}
	if _, err := decodeResync([]byte{1, 2, 3}); err == nil {
		t.Fatal("decodeResync accepted 3 bytes")
	}
}

// A node's generator is seeded at its first draw, not at assembly: a perfect
// acceptance test draws nothing and must leave it unseeded, and once drawn it
// is math/rand's stream for the seed the node always had, draw for draw
// through every method the protocol uses (the oracle's Float64, a resync's
// Int63n).
func TestNodeGeneratorIsSeededAtFirstDraw(t *testing.T) {
	lazy := &lazySource{seed: 5}
	if rng := rand.New(lazy); at.Perfect().Check(msg.Payload{Corrupted: true}, rng) || !at.Perfect().Check(msg.Payload{}, rng) {
		t.Fatal("perfect oracle misjudged")
	}
	if lazy.src != nil {
		t.Fatal("a perfect acceptance test seeded the source")
	}

	sim, err := NewSim(Config{Topology: Ring(3, 1, 100, 50, at.Perfect()), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()
	half := at.Oracle{Coverage: 0.5}
	for _, id := range sim.asg.Nodes {
		rng, twin := sim.nodes[id].rng, rand.New(rand.NewSource(mixSeed(11, uint64(id))))
		for i := 0; i < 100; i++ {
			var got, want any
			switch i % 4 {
			case 0:
				got, want = rng.Float64(), twin.Float64()
			case 1:
				got, want = rng.Int63n(1_000_001), twin.Int63n(1_000_001)
			case 2:
				got, want = rng.Uint64(), twin.Uint64()
			case 3:
				got, want = half.Check(msg.Payload{Corrupted: true}, rng), half.Check(msg.Payload{Corrupted: true}, twin)
			}
			if got != want {
				t.Fatalf("node %d draw %d: %v, math/rand seeded for the node gives %v", id, i, got, want)
			}
		}
	}
}
