package cluster

import (
	"time"

	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/sim"
)

// Sim is a cluster on the deterministic discrete-event engine (seam.Sim): one
// event thread, virtual time, seeded delays and chaos — identical transcripts
// per seed at any membership size. This is the runtime that scales to 50 and
// 100 nodes.
type Sim struct {
	*Cluster
	eng *sim.Engine
}

// simRuntime is the engine runtime plus the cluster's gossip datagrams, which
// the simulator passes by value as plain engine events.
type simRuntime struct{ *seam.Sim }

func (rt simRuntime) datagram(_ msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	rt.Eng.After(delay, func() { handle(p) })
}

// NewSim builds a simulated cluster.
func NewSim(cfg Config) (*Sim, error) {
	cl, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	cl.rt = simRuntime{seam.NewSim(eng)}
	return &Sim{Cluster: cl, eng: eng}, nil
}

// Engine exposes the event engine (tests use it for scheduling probes).
func (s *Sim) Engine() *sim.Engine { return s.eng }
