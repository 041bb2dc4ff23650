// Package seam declares the execution seam between the paper's protocol
// assemblies (coord.System, cluster.Cluster) and the world they run in, once.
// The protocol says nothing about how a node's timer expiries, deliveries and
// application events are serialized; the policy — a node is a critical
// section, a system-wide procedure takes every node in ascending order, true
// time comes from one clock, a directed pair's deliveries stay in order —
// lives here, with exactly two implementations for the whole tree: Sim (this
// package; the discrete-event engine, importable by deterministic code) and
// wall.Runtime (internal/seam/wall; one event loop per node on the wall
// clock, the only place below the assemblies that may read it).
package seam

import (
	"math/rand"
	"time"

	"github.com/synergy-ft/synergy/internal/eventq"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Runtime is a clock, an execution discipline, a random source and the one
// interconnect primitive both worlds have. An assembly embeds it in its own
// interface next to what only that assembly needs.
type Runtime interface {
	// Now reads true time; After arms a one-shot timer on it whose callback
	// runs holding node id, and Cancel disarms one: it never runs after.
	// Cancelling a timer that ran, or cancelling twice, is harmless.
	Now() vtime.Time
	After(id msg.ProcID, d time.Duration, fn func()) Timer
	Cancel(t Timer)
	// Hold takes a node, so nothing else touches its state until Release.
	// An assembly takes several nodes only in ascending ID order — the one
	// global order that keeps multi-node sections deadlock-free. Both are
	// no-ops on the simulator's single event thread.
	Hold(id msg.ProcID)
	Release(id msg.ProcID)
	// Rand is node id's seeded source.
	Rand(id msg.ProcID) *rand.Rand
	// Recover runs fn — a system-wide procedure that takes every node itself
	// — on behalf of a caller inside one node's critical section: inline on
	// the simulator, on a fresh goroutine where nodes are real locks. By the
	// time fn has the membership the world may have moved on; fn re-checks
	// its precondition.
	Recover(fn func())
	// Deliver runs fn holding node to after delay, never before an earlier
	// delivery on the same directed pair: the reliable channels' FIFO.
	Deliver(from, to msg.ProcID, delay time.Duration, fn func())
}

// Timer names a timer After armed, for Cancel: its node and its event in
// that node's queue. It is a value, so arming a timer allocates nothing. The
// zero Timer names none.
type Timer struct {
	Node  msg.ProcID
	Event eventq.ID
}

// Sim implements Runtime on the discrete-event engine: one event thread (so
// Hold and Release have nothing to do and Recover runs inline), virtual time,
// the engine's single seeded source whichever node draws.
type Sim struct {
	Eng *sim.Engine
	// lastArrival enforces per-directed-pair FIFO on Deliver, the way
	// wall.Runtime's per-node high-waters do: one row per destination, made
	// on its first delivery and indexed by source. An entry holds one past
	// the pair's latest arrival, so zero means nothing delivered since the
	// last Forget and a pair last delivered at instant 0 still clamps.
	lastArrival [256]*[256]vtime.Time
}

var _ Runtime = (*Sim)(nil)

// NewSim wraps an engine.
func NewSim(eng *sim.Engine) *Sim {
	return &Sim{Eng: eng}
}

func (r *Sim) Now() vtime.Time { return r.Eng.Now() }

// After ignores the node: one event thread runs every callback.
func (r *Sim) After(id msg.ProcID, d time.Duration, fn func()) Timer {
	return Timer{Node: id, Event: r.Eng.After(d, fn)}
}

func (r *Sim) Cancel(t Timer) {
	if t.Event != 0 {
		r.Eng.Cancel(t.Event)
	}
}

func (r *Sim) Hold(msg.ProcID)            {}
func (r *Sim) Release(msg.ProcID)         {}
func (r *Sim) Rand(msg.ProcID) *rand.Rand { return r.Eng.Rand() }

// Recover also forgets the FIFO high-waters: the one system-wide procedure
// that runs over Deliver as-is — the cluster's software recovery — discards
// everything in flight (its epoch gate), and transcripts depend on the forget
// coming first. A runtime whose procedures do not all flush (the
// three-process assembly's timer resync) overrides Recover and calls Forget
// from its flush instead.
func (r *Sim) Recover(fn func()) {
	r.Forget()
	fn()
}

// Forget drops every pair's FIFO high-water. It belongs to a flush and to
// nothing else: what is sent after one must not queue behind the discarded
// traffic, while forgetting with a pair's traffic still live would let the
// next send overtake it.
func (r *Sim) Forget() {
	for _, row := range r.lastArrival {
		if row != nil {
			clear(row[:])
		}
	}
}

// Deliver clamps to the pair's high-water. Arrivals are never negative (true
// time starts at zero and delays are not), so an entry of zero clamps nothing.
func (r *Sim) Deliver(from, to msg.ProcID, delay time.Duration, fn func()) {
	if r.lastArrival[to] == nil {
		r.lastArrival[to] = new([256]vtime.Time)
	}
	arrival := r.Eng.Now().Add(delay)
	if next := r.lastArrival[to][from]; arrival.Before(next) {
		arrival = next
	}
	r.lastArrival[to][from] = arrival + 1
	r.Eng.Schedule(arrival, fn)
}

// Wait lets d of virtual time pass, executing everything due in the window.
func (r *Sim) Wait(d time.Duration) { r.Eng.RunUntil(r.Eng.Now().Add(d)) }
