package coord

import (
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/simnet"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// simRuntime runs the assembly on the discrete-event engine (seam.Sim: one
// event thread, virtual time, the engine's single seeded source), with simnet
// as the interconnect and hosts whose memory survives a crash by fiat (Up only
// reconnects them).
type simRuntime struct {
	*seam.Sim
	cfg Config
	net *simnet.Network
	rec *trace.Recorder
	inj *chaos.Injector
}

var _ Runtime = (*simRuntime)(nil)

// NewSystem assembles a system over the discrete-event simulator.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &simRuntime{Sim: seam.NewSim(sim.New(cfg.Seed)), cfg: cfg}
	if cfg.TraceEnabled {
		rt.rec = trace.New()
	}
	net, err := simnet.New(rt.Eng, cfg.Net)
	if err != nil {
		return nil, err
	}
	rt.net = net
	if cfg.Chaos.FrameFaults() {
		inj, err := chaos.NewInjector(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		inj.Obs = chaos.NewObs(cfg.Obs)
		rt.inj = inj
		rt.net.SetChaos(inj)
	}
	s, err := New(cfg, rt)
	if err != nil {
		return nil, err
	}
	s.sim = rt
	for _, n := range s.order {
		// Node i hosts process i.
		rt.net.Register(n.id, msg.NodeID(n.id), func(m msg.Message) { s.Deliver(&m) })
	}
	return s, nil
}

func (r *simRuntime) Send(m msg.Message)                      { r.net.SendWithDelay(m, r.delayFor(m)) }
func (r *simRuntime) Flush()                                  { r.net.Flush() }
func (r *simRuntime) Record(e trace.Event)                    { r.rec.Record(e) }
func (r *simRuntime) Down(id msg.ProcID)                      { r.net.SetNodeDown(msg.NodeID(id), true) }
func (r *simRuntime) FailStop(msg.ProcID, uint64, error) bool { return false }

func (r *simRuntime) Up(id msg.ProcID) error {
	r.net.SetNodeDown(msg.NodeID(id), false)
	return nil
}

func (r *simRuntime) Stats() (sent, delivered uint64) {
	st := r.net.Stats()
	return st.Sent, st.Delivered
}

// delayFor derives a deterministic delivery delay for a message from the run
// seed and the message identity. Broadcast copies of one logical message
// (same origin and SN) travel with the same delay, keeping the active and
// shadow replicas aligned.
func (r *simRuntime) delayFor(m msg.Message) time.Duration {
	h := uint64(r.cfg.Seed) ^ 0x8a91b2c3d4e5f607
	h = splitmix(h ^ uint64(m.From)<<8 ^ uint64(m.Kind))
	h = splitmix(h ^ m.SN)
	h = splitmix(h ^ m.ValidSN ^ m.Ndc<<17 ^ m.AckSN<<29 ^ m.ChanSeq<<43)
	span := uint64(r.cfg.Net.MaxDelay - r.cfg.Net.MinDelay)
	if span == 0 {
		return r.cfg.Net.MinDelay
	}
	return r.cfg.Net.MinDelay + time.Duration(h%(span+1))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// The methods below exist only on a simulated system (NewSystem): they reach
// the engine the caller steps.

// Engine exposes the discrete-event engine.
func (s *System) Engine() *sim.Engine { return s.sim.Eng }

// Network exposes the interconnect.
func (s *System) Network() *simnet.Network { return s.sim.net }

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
