package seam

import (
	"math/rand"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// TestSimDeliverOrdersAPair: a pair's later delivery never overtakes its
// earlier one, whatever the delays; another pair's is not held back.
func TestSimDeliverOrdersAPair(t *testing.T) {
	rt := NewSim(sim.New(1))
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	rt.Deliver(1, 2, 5*time.Millisecond, mark("a1"))
	rt.Deliver(1, 2, time.Millisecond, mark("a2"))
	rt.Deliver(1, 2, time.Millisecond, mark("a3")) // a duplicate sits right behind
	rt.Deliver(3, 2, time.Millisecond, mark("b1"))
	rt.Wait(10 * time.Millisecond)
	if got := len(order); got != 4 || order[0] != "b1" || order[1] != "a1" || order[2] != "a2" || order[3] != "a3" {
		t.Fatalf("order = %v, want [b1 a1 a2 a3]", order)
	}
	if rt.Now() != rt.Eng.Now() || time.Duration(rt.Now()) != 10*time.Millisecond {
		t.Fatalf("Now = %v after Wait(10ms)", rt.Now())
	}
}

// TestSimRecoverAndTimers: Recover runs inline and forgets the FIFO
// high-waters (what follows a flush does not queue behind it); a cancelled
// timer never runs and cancelling twice is harmless.
func TestSimRecoverAndTimers(t *testing.T) {
	rt := NewSim(sim.New(1))
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	rt.Deliver(1, 2, 5*time.Millisecond, mark("flushed"))
	ran := false
	rt.Recover(func() { ran = true })
	if !ran {
		t.Fatal("Recover did not run its procedure inline")
	}
	rt.Deliver(1, 2, time.Millisecond, mark("resent"))
	cancel := rt.After(2, 2*time.Millisecond, mark("cancelled"))
	rt.Cancel(cancel)
	rt.Cancel(cancel)
	rt.After(2, 3*time.Millisecond, mark("timer"))
	rt.Wait(10 * time.Millisecond)
	if len(order) != 3 || order[0] != "resent" || order[1] != "timer" || order[2] != "flushed" {
		t.Fatalf("order = %v, want [resent timer flushed]", order)
	}
	if rt.Rand(1) != rt.Eng.Rand() || rt.Rand(2) != rt.Rand(1) {
		t.Fatal("every node must draw from the engine's one source")
	}
}

// TestSimAfterAllocatesNothing: a timer armed through the seam is named by a
// value, not a cancel closure, so arming, cancelling and running timers
// allocates nothing once the event queue has its capacity.
func TestSimAfterAllocatesNothing(t *testing.T) {
	r := NewSim(sim.New(1))
	var rt Runtime = r
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		rt.Cancel(rt.After(1, time.Millisecond, fn))
		rt.After(2, time.Millisecond, fn)
		r.Wait(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("After allocates %.1f times per timer armed and run", allocs)
	}
}

// fifoModel is Sim's FIFO clamp kept as a map keyed by directed pair: an
// absent pair clamps nothing, a present one — even one last delivered at
// instant 0 — pushes the next arrival past its high-water. Forget clears it.
type fifoModel struct {
	last map[[2]msg.ProcID]vtime.Time
}

func (m *fifoModel) arrival(now vtime.Time, from, to msg.ProcID, delay time.Duration) vtime.Time {
	k := [2]msg.ProcID{from, to}
	a := now.Add(delay)
	if last, ok := m.last[k]; ok && !a.After(last) {
		a = last + 1
	}
	m.last[k] = a
	return a
}

// TestSimFIFOMatchesMapModel: on 1 000 seeds of random sequences mixing
// deliveries over ProcIDs 1–255 (most on a few hot pairs, so the clamp
// binds), zero delays from instant 0 on, Forget and engine steps, every
// delivery runs at the instant the map model predicts.
func TestSimFIFOMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := NewSim(sim.New(seed))
		model := &fifoModel{last: make(map[[2]msg.ProcID]vtime.Time)}
		hot := []msg.ProcID{1, 2, 3, msg.ProcID(1 + rng.Intn(255))}
		id := func() msg.ProcID {
			if rng.Intn(4) == 0 {
				return msg.ProcID(1 + rng.Intn(255))
			}
			return hot[rng.Intn(len(hot))]
		}
		var want, got []vtime.Time
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(20); {
			case r < 14:
				from, to := id(), id()
				var delay time.Duration
				if rng.Intn(3) > 0 {
					delay = time.Duration(rng.Intn(4))
					if rng.Intn(8) == 0 {
						delay = time.Duration(rng.Intn(1000))
					}
				}
				i := len(want)
				want = append(want, model.arrival(rt.Now(), from, to, delay))
				got = append(got, -1)
				rt.Deliver(from, to, delay, func() { got[i] = rt.Now() })
			case r < 15:
				rt.Forget()
				clear(model.last)
			default:
				rt.Eng.Step()
			}
		}
		rt.Eng.Run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: delivery %d of %d ran at %d ns, the map model predicts %d ns", seed, i, len(want), int64(got[i]), int64(want[i]))
			}
		}
	}
}
