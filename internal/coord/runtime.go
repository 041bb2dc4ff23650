package coord

import (
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/trace"
)

// Runtime is what the three-process assembly needs of the world it runs in:
// the shared execution seam (seam.Runtime — a clock, timers whose callbacks
// hold their node, node holds, per-node randomness, Recover) plus what only
// this assembly has — a message interconnect with flush, a trace sink and the
// hosts the nodes run on. Everything in this package — node construction,
// routing, the workload streams, both recovery procedures, the steps that
// turn a host's surviving stable rounds back into a running node,
// inspection — is written once against it. The seam half has the tree's two
// implementations (seam.Sim, wall.Runtime), and the in-process interconnect
// is written once over either (Interconnect); simRuntime (sim.go, serving
// every experiment) and the wall-clock middleware in internal/live (which
// adds the TCP transport and durable logs) supply the rest. Wall-clock reads,
// timers and goroutines stay out of this package.
type Runtime interface {
	seam.Runtime
	// Send hands m to the reliable FIFO interconnect (the sender is held);
	// deliveries come back through System.Deliver with the destination held.
	// Flush discards everything in flight; Stats counts messages handed over
	// and delivered.
	Send(m msg.Message)
	Flush()
	Stats() (sent, delivered uint64)
	// Record appends to the protocol trace.
	Record(e trace.Event)
	// Attach gives node id's stable store its host's disk (id is held), at
	// assembly and whenever the node rejoins: the rounds that survive there
	// replace the store's, and later commits go through to it. A runtime
	// whose hosts keep their rounds in memory attaches nothing.
	Attach(id msg.ProcID, st *storage.Stable) error
	// Down takes node id's host away (id is held): it leaves the
	// interconnect and drops what it holds open. Up brings it back onto the
	// interconnect and may fail, leaving the node down.
	Down(id msg.ProcID)
	Up(id msg.ProcID) error
	// FailStop is asked, with every node held, when node id's stable storage
	// stops taking writes: a commit exhausted its retries, or a recovery
	// pass's rollback was refused. True means the runtime treats it as that
	// node's crash — the assembly takes the node down and the runtime brings
	// it back through RebootNode later; false makes it a system failure.
	FailStop(id msg.ProcID, cause error) bool
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
