package cluster

import (
	"math/rand"
	"time"

	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Sim is a cluster on the deterministic discrete-event engine: one event
// thread, virtual time, seeded delays and chaos — identical transcripts per
// seed at any membership size. This is the runtime that scales to 50 and 100
// nodes and the only one that can execute software error recovery
// (CorruptActive gives it states that fail acceptance tests).
type Sim struct {
	*Cluster
	eng *sim.Engine
}

type pairKey struct{ from, to msg.ProcID }

// simRuntime implements runtime on the discrete-event engine.
type simRuntime struct {
	eng *sim.Engine
	// lastArrival enforces per-directed-pair FIFO on the reliable channels.
	lastArrival map[pairKey]vtime.Time
}

func (rt *simRuntime) Now() vtime.Time { return rt.eng.Now() }

// after and datagram ignore the node: one event thread runs every callback.
func (rt *simRuntime) after(_ msg.ProcID, d time.Duration, fn func()) (cancel func()) {
	id := rt.eng.After(d, fn)
	return func() { rt.eng.Cancel(id) }
}

func (rt *simRuntime) wait(d time.Duration) { rt.eng.RunUntil(rt.eng.Now().Add(d)) }

// hold and release are no-ops: the event thread already owns every node.
func (rt *simRuntime) hold([]msg.ProcID)    {}
func (rt *simRuntime) release([]msg.ProcID) {}

// quiesce forgets the FIFO high-waters: the traffic they ordered is being
// flushed, and post-recovery sends must not queue behind it.
func (rt *simRuntime) quiesce() bool {
	clear(rt.lastArrival)
	return true
}

func (rt *simRuntime) deliver(from, to msg.ProcID, delay time.Duration, fn func()) {
	k := pairKey{from: from, to: to}
	arrival := rt.eng.Now().Add(delay)
	if last, ok := rt.lastArrival[k]; ok && !arrival.After(last) {
		arrival = last + 1
	}
	rt.lastArrival[k] = arrival
	rt.eng.Schedule(arrival, fn)
}

func (rt *simRuntime) datagram(_ msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	rt.eng.After(delay, func() { handle(p) })
}

func (rt *simRuntime) rand() *rand.Rand { return rt.eng.Rand() }

// launch and halt are no-ops: RunFor drives the event thread.
func (rt *simRuntime) launch() {}
func (rt *simRuntime) halt()   {}

// NewSim builds a simulated cluster.
func NewSim(cfg Config) (*Sim, error) {
	rt := &simRuntime{eng: sim.New(cfg.Seed), lastArrival: make(map[pairKey]vtime.Time)}
	cl, err := newCluster(cfg, rt)
	if err != nil {
		return nil, err
	}
	return &Sim{Cluster: cl, eng: rt.eng}, nil
}

// Engine exposes the event engine (tests use it for scheduling probes).
func (s *Sim) Engine() *sim.Engine { return s.eng }

// CorruptActive activates the design fault in a guarded component's active —
// the low-confidence version, the only place the paper's software faults
// live (the hardware-fault analog is not modeled here). The next suspect
// external emission fails its acceptance test and triggers system-wide
// recovery. It reports false if the component is not, or no longer, under
// guarded operation.
func (s *Sim) CorruptActive(c gmdcd.ComponentID) bool {
	n := s.liveNode(c)
	if n == nil || !n.guardedActive() {
		return false
	}
	n.state.Corrupt()
	return true
}
