package coord

import (
	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
)

// Start arms the workload streams and (for timer-based schemes) the TB
// checkpointers, with every node held so nothing fires into a half-armed
// system.
func (s *System) Start() {
	s.holdAll()
	defer s.releaseAll()
	s.workloadOn = true
	if s.cfg.Scheme.UsesTBTimers() {
		for _, n := range s.order {
			if n.cp != nil {
				n.cp.Start()
			}
		}
	}
	// The six event streams: local-step, internal and external traffic for
	// each of the two application components. Component-1 events drive the
	// active process and its shadow identically (the middleware feeds both
	// replicas the same inputs).
	c1, c2 := s.component1(), []*node{s.nodes[msg.P2]}
	for _, st := range []*stream{
		{replicas: c1, kind: localStep, rate: s.cfg.Workload1.LocalStepRate},
		{replicas: c1, kind: emitInternal, rate: s.cfg.Workload1.InternalRate},
		{replicas: c1, kind: emitExternal, rate: s.cfg.Workload1.ExternalRate},
		{replicas: c2, kind: localStep, rate: s.cfg.Workload2.LocalStepRate},
		{replicas: c2, kind: emitInternal, rate: s.cfg.Workload2.InternalRate},
		{replicas: c2, kind: emitExternal, rate: s.cfg.Workload2.ExternalRate},
	} {
		if st.rate > 0 {
			st.sys, st.fire = s, st.fired
			st.arm()
		}
	}
}

// Stop stops the workload and every checkpointer, abandoning any in-flight
// stable write. What is already on the interconnect still arrives; the
// runtime's timers and transports are its owner's to stop.
func (s *System) Stop() {
	s.holdAll()
	defer s.releaseAll()
	s.workloadOn = false
	for _, n := range s.order {
		if n.cp != nil {
			n.cp.Stop()
		}
	}
}

// component1 lists the nodes embodying component 1 in this scheme, ascending.
func (s *System) component1() []*node {
	if sdw := s.nodes[msg.P1Sdw]; sdw != nil {
		return []*node{s.nodes[msg.P1Act], sdw}
	}
	return []*node{s.nodes[msg.P1Act]}
}

// appEvent is one application event of the workload.
type appEvent struct {
	kind  eventKind
	input int64 // the local step's input
}

type eventKind uint8

const (
	localStep eventKind = iota
	emitInternal
	emitExternal
)

// stream is one self-rescheduling exponential event stream. Its timer lives
// on the component's first replica node, which the callback therefore holds.
type stream struct {
	sys      *System
	replicas []*node
	kind     eventKind
	rate     float64
	fire     func() // fired, bound once so re-arming allocates no closure
}

func (st *stream) arm() {
	home := st.replicas[0].id
	st.sys.rt.After(home, app.ExpGap(st.rate, st.sys.rt.Rand(home)), st.fire)
}

func (st *stream) fired() {
	s := st.sys
	if !s.workloadOn {
		return
	}
	ev := appEvent{kind: st.kind}
	if ev.kind == localStep {
		ev.input = s.rt.Rand(st.replicas[0].id).Int63n(1_000_000)
	}
	s.apply(st.replicas, ev)
	st.arm()
}

// apply runs one workload event on every replica of a component, in
// lockstep: the caller holds the first replica, the rest (ascending) are
// taken here.
func (s *System) apply(replicas []*node, ev appEvent) {
	for _, n := range replicas[1:] {
		s.rt.Hold(n.id)
	}
	for _, n := range replicas {
		s.runOrDefer(n, ev)
	}
	for _, n := range replicas[1:] {
		s.rt.Release(n.id)
	}
}

// runOrDefer executes an application event now, or defers it to the end of
// the process's blocking period (a blocked process neither computes nor
// communicates).
func (s *System) runOrDefer(n *node, ev appEvent) {
	if n.proc.Failed() || n.down {
		return // a crashed node computes nothing until repaired
	}
	if n.cp != nil && n.cp.InBlocking() {
		n.pending = append(n.pending, ev)
		return
	}
	n.run(ev)
}

func (n *node) run(ev appEvent) {
	switch ev.kind {
	case localStep:
		n.proc.State.LocalStep(ev.input)
	case emitInternal:
		n.proc.EmitInternal()
	case emitExternal:
		n.proc.EmitExternal()
	}
}

// flushPending runs events deferred during a blocking period.
func (s *System) flushPending(n *node) {
	pend := n.pending
	n.pending = nil
	for _, ev := range pend {
		n.run(ev)
	}
}

// emit drives one explicit event on a component from outside the streams.
func (s *System) emit(replicas []*node, ev appEvent) {
	s.rt.Hold(replicas[0].id)
	defer s.rt.Release(replicas[0].id)
	s.apply(replicas, ev)
}

// EmitC1Internal drives one explicit internal-message event on component 1
// (both replicas), used by scripted scenarios and examples.
func (s *System) EmitC1Internal() { s.emit(s.component1(), appEvent{kind: emitInternal}) }

// EmitC1External drives one explicit external-message event on component 1.
func (s *System) EmitC1External() { s.emit(s.component1(), appEvent{kind: emitExternal}) }

// EmitC2Internal drives one explicit internal-message event on component 2.
func (s *System) EmitC2Internal() { s.emit(s.nodes[msg.P2:], appEvent{kind: emitInternal}) }

// EmitC2External drives one explicit external-message event on component 2.
func (s *System) EmitC2External() { s.emit(s.nodes[msg.P2:], appEvent{kind: emitExternal}) }

// ActivateSoftwareFault corrupts the active process's state (the design
// fault in the low-confidence version manifests). The next acceptance test
// over a corrupted payload detects it with the configured coverage.
func (s *System) ActivateSoftwareFault() {
	n := s.nodes[msg.P1Act]
	s.rt.Hold(n.id)
	defer s.rt.Release(n.id)
	if n.proc.Failed() || n.down || !s.cfg.Scheme.Guarded() {
		return
	}
	n.proc.State.Corrupt()
	s.rt.Record(trace.Event{At: s.rt.Now(), Proc: msg.P1Act, Kind: trace.FaultActivated})
}
