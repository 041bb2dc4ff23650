package coord

import (
	"math/rand"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Runtime is the seam between the three-process assembly and the world it
// runs in: a clock, an execution discipline, a reliable interconnect, a
// random source, a trace sink and the hosts the nodes run on. Everything in
// this package — node construction, routing, the workload streams, both
// recovery procedures, inspection — is written once against it. It has
// exactly two implementations: simRuntime (sim.go; the discrete-event engine
// and simnet, serving every experiment) and the wall-clock one in
// internal/live (node mutexes, real timers, the channel/TCP transports,
// durable storage). Its methods are exported only because the second
// implementation lives in another package: wall-clock reads, timers and
// goroutines must stay out of this one.
type Runtime interface {
	// Now reads true time; After arms a one-shot timer on it whose callback
	// runs holding node id.
	Now() vtime.Time
	After(id msg.ProcID, d time.Duration, fn func()) (cancel func())
	// Hold takes a node, so nothing else touches its state until Release.
	// The assembly takes several nodes only in ascending ID order. Both are
	// no-ops on the simulator's single event thread.
	Hold(id msg.ProcID)
	Release(id msg.ProcID)
	// Rand is the seeded source for draws made while holding node id.
	Rand(id msg.ProcID) *rand.Rand
	// Send hands m to the reliable FIFO interconnect (the sender is held);
	// deliveries come back through System.Deliver with the destination held.
	// Flush discards everything in flight; Stats counts messages handed over
	// and delivered.
	Send(m msg.Message)
	Flush()
	Stats() (sent, delivered uint64)
	// Recover runs fn — a system-wide procedure that takes every node itself
	// — on behalf of a caller inside one node's critical section: inline on
	// the simulator, on a fresh goroutine where nodes are real locks.
	Recover(fn func())
	// Record appends to the protocol trace.
	Record(e trace.Event)
	// Down takes node id's host away (id is held): it leaves the
	// interconnect and drops what it holds open. Up brings it back with every
	// node held — reattaching its stable storage to the checkpointer the
	// assembly just rebuilt, where memory does not survive a crash — and may
	// fail, leaving the node down.
	Down(id msg.ProcID)
	Up(id msg.ProcID) error
	// FailStop is asked, with every node held, when node id's stable storage
	// stops taking writes: a commit exhausted its retries (round 0), or a
	// recovery pass's rollback to round was refused. True means the runtime
	// treats it as that node's crash — the assembly takes the node down and
	// the runtime brings it back through RebootNode later; false makes it a
	// system failure.
	FailStop(id msg.ProcID, round uint64, cause error) bool
}

// holdAll takes every node in ascending ID order — the one global order that
// keeps multi-node sections deadlock-free — and releaseAll lets them go.
func (s *System) holdAll() {
	for _, n := range s.order {
		s.rt.Hold(n.id)
	}
}

func (s *System) releaseAll() {
	for i := len(s.order) - 1; i >= 0; i-- {
		s.rt.Release(s.order[i].id)
	}
}
