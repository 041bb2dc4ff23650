package cluster

import (
	"encoding/binary"
	"fmt"
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
	comps := slots{1, 3, 9, 12}
	vec := sparseVec(comps, map[gmdcd.ComponentID]uint64{3: 17, 1: 4, 9: 250}) // C12 absent
	buf := encodePassedAT(7, 3, comps, vec)
	if want := 12 + 10*3; len(buf) != want {
		t.Fatalf("payload is %d bytes, want %d (absent slots have no entry)", len(buf), want)
	}
	got := make([]uint64, len(comps))
	epoch, from, err := decodePassedAT(buf, comps, got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if epoch != 7 || from != 3 {
		t.Fatalf("epoch=%d from=%d, want 7, 3", epoch, from)
	}
	if !slices.Equal(got, vec) {
		t.Fatalf("vector = %v, want %v", got, vec)
	}
	// Decoding merges: entries only ever raise what the destination holds.
	got[comps.of(3)] = 99
	if _, _, err := decodePassedAT(buf, comps, got); err != nil || got[comps.of(3)] != 99 || got[comps.of(9)] != 250 {
		t.Fatalf("merge into a populated vector = %v (err %v)", got, err)
	}
}

func TestPassedATCodecRejectsMalformed(t *testing.T) {
	comps := slots{2, 4}
	good := encodePassedAT(1, 2, comps, sparseVec(comps, map[gmdcd.ComponentID]uint64{4: 9}))
	foreign := slices.Clone(good)
	foreign[12] = 5 // the entry now names C5, which the topology does not have
	for _, b := range [][]byte{nil, good[:5], good[:len(good)-1], append(slices.Clone(good), 0), foreign} {
		if _, _, err := decodePassedAT(b, comps, make([]uint64, len(comps))); err == nil {
			t.Fatalf("decodePassedAT accepted malformed payload %x", b)
		}
	}
}

// A duplicate entry used to overwrite an earlier higher value (last one won).
func TestPassedATDuplicateEntriesMergeByMax(t *testing.T) {
	comps := slots{2, 4}
	for _, order := range [][2]uint64{{9, 3}, {3, 9}} {
		b := passedATBytes(1, 2, [][2]uint64{{4, order[0]}, {4, order[1]}})
		got := make([]uint64, len(comps))
		if _, _, err := decodePassedAT(b, comps, got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if want := []uint64{0, 9}; !slices.Equal(got, want) {
			t.Fatalf("entries %v decoded to %v, want %v", order, got, want)
		}
	}
}

// searchDecodePassedAT is the decoder before its cursor: every entry's slot
// is found by comps.of. It is the model the cursor decode must match.
func searchDecodePassedAT(b []byte, comps slots, validated []uint64) (epoch uint64, from gmdcd.ComponentID, err error) {
	if len(b) < 12 {
		return 0, 0, fmt.Errorf("cluster: passed-AT payload truncated (%d bytes)", len(b))
	}
	epoch = binary.LittleEndian.Uint64(b)
	from = gmdcd.ComponentID(binary.LittleEndian.Uint16(b[8:]))
	count := int(binary.LittleEndian.Uint16(b[10:]))
	if len(b) != 12+10*count {
		return 0, 0, fmt.Errorf("cluster: passed-AT payload is %d bytes, want %d", len(b), 12+10*count)
	}
	for off := 12; off < len(b); off += 10 {
		c := gmdcd.ComponentID(binary.LittleEndian.Uint16(b[off:]))
		slot := comps.of(c)
		if slot < 0 {
			return 0, 0, fmt.Errorf("cluster: passed-AT entry names %v, which is not in the topology", c)
		}
		validated[slot] = max(validated[slot], binary.LittleEndian.Uint64(b[off+2:]))
	}
	return epoch, from, nil
}

// TestPassedATCursorDecodeMatchesSearch: in-order, out-of-order, duplicate
// and foreign entries merge (or fail, leaving the same partial merge) exactly
// as a search per entry does.
func TestPassedATCursorDecodeMatchesSearch(t *testing.T) {
	check := func(name string, comps slots, entries [][2]uint64) {
		t.Helper()
		b := passedATBytes(5, 1, entries)
		got, want := make([]uint64, len(comps)), make([]uint64, len(comps))
		_, _, err := decodePassedAT(b, comps, got)
		_, _, wantErr := searchDecodePassedAT(b, comps, want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("%s: entries %v over %v decoded to %v (err %v), model %v (err %v)", name, entries, comps, got, err, want, wantErr)
		}
	}
	comps := slots{2, 4, 7, 11, 20}
	for _, tc := range []struct {
		name    string
		entries [][2]uint64
	}{
		{"in order, dense", [][2]uint64{{2, 1}, {4, 2}, {7, 3}, {11, 4}, {20, 5}}},
		{"in order, sparse", [][2]uint64{{4, 2}, {20, 5}}},
		{"out of order", [][2]uint64{{11, 4}, {2, 1}, {20, 5}, {7, 3}}},
		{"adjacent duplicate", [][2]uint64{{4, 9}, {4, 3}, {7, 1}}},
		{"duplicate behind the cursor", [][2]uint64{{2, 1}, {11, 4}, {2, 8}, {20, 5}}},
		{"unknown first", [][2]uint64{{3, 1}, {4, 2}}},
		{"unknown between slots", [][2]uint64{{2, 1}, {5, 2}, {7, 3}}},
		{"unknown behind the cursor", [][2]uint64{{7, 1}, {20, 2}, {3, 3}}},
		{"unknown past the last slot", [][2]uint64{{11, 1}, {21, 2}}},
	} {
		check(tc.name, comps, tc.entries)
	}
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := rng.Perm(64)[:1+rng.Intn(20)]
		comps := make(slots, len(ids))
		for i, id := range ids {
			comps[i] = gmdcd.ComponentID(id)
		}
		slices.Sort(comps)
		entries := make([][2]uint64, rng.Intn(16))
		for i := range entries {
			c := uint64(comps[rng.Intn(len(comps))])
			if rng.Intn(16) == 0 {
				c = uint64(rng.Intn(66)) // usually not in the topology
			}
			entries[i] = [2]uint64{c, uint64(rng.Intn(100))}
		}
		if rng.Intn(2) == 0 {
			slices.SortFunc(entries, func(a, b [2]uint64) int { return int(a[0]) - int(b[0]) })
		}
		check(fmt.Sprintf("seed %d", seed), comps, entries)
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
