package mdcd

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

func TestVolatileSaveAndLatest(t *testing.T) {
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), newFakeEnv(), nil)
	if _, ok := p.Volatile.Latest(); ok {
		t.Fatal("empty volatile slot should report no checkpoint")
	}
	p.State.Step = 1
	p.takeVolatile(checkpoint.Type1)
	p.State.Step = 2
	p.takeVolatile(checkpoint.Type2)
	got, ok := p.Volatile.Latest()
	if !ok || got.State.Step != 2 || got.Kind != checkpoint.Type2 {
		t.Fatalf("Latest = %+v,%v, want the step-2 Type-2", got, ok)
	}
	if p.Volatile.Saves() != 2 {
		t.Fatalf("Saves = %d, want 2", p.Volatile.Saves())
	}
}

// TestVolatileLatestBuildsAFreshCheckpoint: every read of the slot builds a
// new record the caller owns, so one reader's writes never reach the slot or
// another reader (the TB checkpointer relabels what it is given in place).
func TestVolatileLatestBuildsAFreshCheckpoint(t *testing.T) {
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), newFakeEnv(), nil)
	p.Receive(internalFrom(msg.P1Act, 1, 1, false))
	p.takeVolatile(checkpoint.Type1)
	a, _ := p.Volatile.Latest()
	b, _ := p.Volatile.Latest()
	if a == b || a.State == b.State || !reflect.DeepEqual(a, b) {
		t.Fatalf("two reads: %p and %p, want distinct equal records", a, b)
	}
	a.Kind, a.Dirty = checkpoint.Stable, true
	a.State.Step = 99
	a.RecvFrom[msg.P1Act] = 99
	if c, _ := p.Volatile.Latest(); !reflect.DeepEqual(c, b) {
		t.Fatalf("a reader's writes reached the slot: %+v, want %+v", c, b)
	}
}

func TestVolatileCrashLosesContents(t *testing.T) {
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), newFakeEnv(), nil)
	p.takeVolatile(checkpoint.Type1)
	p.Volatile.Crash()
	if _, ok := p.Volatile.Latest(); ok {
		t.Fatal("crash should clear volatile contents")
	}
	if p.Volatile.Saves() != 1 {
		t.Fatal("crash should not clear the overhead counter")
	}
}

// TestCountsRoundTripThroughMaps: a counter vector lowers onto a checkpoint's
// map with its non-zero entries only — the maps the vectors replaced never
// held a zero, so the encoded bytes are theirs — and reads back unchanged.
func TestCountsRoundTripThroughMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var c counts
		want := map[msg.ProcID]uint64{}
		for id := msg.P1Act; id <= msg.Device; id++ {
			if rng.Intn(2) == 0 {
				c[id] = 1 + uint64(rng.Int63n(1<<40))
				want[id] = c[id]
			}
		}
		if got := c.toMap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v lowers to %v, want %v", c, got, want)
		}
		if back := countsOf(want); back != c {
			t.Fatalf("%v reads back as %v, want %v", want, back, c)
		}
	}
}
