package coord

import (
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// simRuntime runs the assembly on the discrete-event engine (seam.Sim: one
// event thread, virtual time, the engine's single seeded source), with the
// Interconnect over it (Down and Up only take a host off it and back). A
// simulated commit writes and syncs in one event, so a host's committed rounds
// survive its crash in memory: Attach has no disk to give.
type simRuntime struct {
	*seam.Sim
	*Interconnect
	rec *trace.Recorder
}

var _ Runtime = (*simRuntime)(nil)

// NewSystem assembles a system over the discrete-event simulator.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &simRuntime{Sim: seam.NewSim(sim.New(cfg.Seed))}
	if cfg.TraceEnabled {
		rt.rec = trace.New()
	}
	var inj *chaos.Injector
	if cfg.Chaos.FrameFaults() {
		var err error
		if inj, err = chaos.NewInjector(cfg.Chaos); err != nil {
			return nil, err
		}
		inj.Obs = chaos.NewObs(cfg.Obs)
	}
	var s *System
	rt.Interconnect = NewInterconnect(rt.Sim, cfg.Seed, cfg.Net, inj, func(m msg.Message) { s.Deliver(&m) })
	s, err := New(cfg, rt)
	if err != nil {
		return nil, err
	}
	s.sim = rt
	return s, nil
}

func (r *simRuntime) Record(e trace.Event)                     { r.rec.Record(e) }
func (r *simRuntime) Attach(msg.ProcID, *storage.Stable) error { return nil }
func (r *simRuntime) FailStop(msg.ProcID, error) bool          { return false }

// Flush also forgets the FIFO high-waters: what recovery re-sends must not
// queue behind the traffic it just discarded.
func (r *simRuntime) Flush() {
	r.Interconnect.Flush()
	r.Forget()
}

// Recover runs fn inline and, unlike seam.Sim's, forgets nothing: the timer
// resync and a failed commit flush nothing, so a pair's traffic in flight
// across them must keep its place.
func (r *simRuntime) Recover(fn func()) { fn() }

// The methods below exist only on a simulated system (NewSystem): they reach
// the engine the caller steps.

// Engine exposes the discrete-event engine.
func (s *System) Engine() *sim.Engine { return s.sim.Eng }

// Recorder returns the trace recorder (nil unless TraceEnabled).
func (s *System) Recorder() *trace.Recorder { return s.sim.rec }

// ChaosStats returns the fault injector's counters, and whether a frame-fault
// injector is installed at all.
func (s *System) ChaosStats() (chaos.Stats, bool) {
	if s.sim.inj == nil {
		return chaos.Stats{}, false
	}
	return s.sim.inj.Stats(), true
}

// RunUntil advances the simulation to instant t.
func (s *System) RunUntil(t vtime.Time) { s.sim.Eng.RunUntil(t) }

// RunFor advances the simulation by d seconds of virtual time.
func (s *System) RunFor(seconds float64) {
	s.RunUntil(s.sim.Eng.Now().Add(vtime.FromSeconds(seconds).Sub(vtime.Zero)))
}

// Quiesce stops the workload and the TB timers, then drains every in-flight
// message, blocking period and held queue. After Quiesce the active and
// shadow replicas have applied the same input set.
func (s *System) Quiesce() {
	// TB timers reschedule themselves forever; stop them so the event
	// queue can drain.
	s.Stop()
	s.sim.Eng.Run() // drain in-flight messages and acks
	for _, n := range s.order {
		n.proc.ReleaseHeld()
		s.flushPending(n)
	}
	s.sim.Eng.Run() // drain traffic triggered by the releases
}
