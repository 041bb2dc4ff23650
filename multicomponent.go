package synergy

import (
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/cluster"
	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// The generalized protocol (the paper's reference [5] direction): guarded
// operation for arbitrary component counts and communication topologies,
// with per-origin confidence tracking instead of a single dirty bit. A
// MultiSystem is the N-node cluster runtime (internal/cluster) on the
// deterministic simulator, one node per replica: the error-containment layer
// (volatile checkpoints, software fault tolerance) coordinated with
// time-based stable checkpointing and passed-AT dissemination over gossip —
// the paper's synergy beyond its three-process architecture.

// Component declares one application component of a multi-component system.
type Component struct {
	// Name identifies the component (unique).
	Name string
	// Guarded marks a low-confidence component escorted by a shadow.
	Guarded bool
	// SendsTo lists the components this one sends internal messages to.
	SendsTo []string
	// InternalRate and ExternalRate drive its workload (messages/second;
	// defaults 2 and 0.5).
	InternalRate, ExternalRate float64
}

// MultiConfig assembles a generalized guarded-operation system.
type MultiConfig struct {
	// Components declares the topology.
	Components []Component
	// Seed drives all randomness.
	Seed int64
	// MinDelay and MaxDelay bound message delivery (defaults 1ms, 20ms).
	MinDelay, MaxDelay time.Duration
	// ATCoverage is the acceptance tests' detection probability
	// (default 1).
	ATCoverage float64
}

// MultiSystem is a running multi-component simulation. Component IDs start at
// 1, so an unknown name resolves to the zero ID, which no node carries: every
// by-name operation on it is a safe no-op.
type MultiSystem struct {
	inner *cluster.Sim
	ids   map[string]gmdcd.ComponentID
}

// NewMultiComponent assembles a generalized system.
func NewMultiComponent(cfg MultiConfig) (*MultiSystem, error) {
	ids := make(map[string]gmdcd.ComponentID, len(cfg.Components))
	for i, c := range cfg.Components {
		ids[c.Name] = gmdcd.ComponentID(i + 1)
	}
	var test at.Test = at.Perfect()
	if cfg.ATCoverage > 0 && cfg.ATCoverage < 1 {
		test = at.Oracle{Coverage: cfg.ATCoverage}
	}
	topo := gmdcd.Topology{Test: test}
	for i, c := range cfg.Components {
		spec := gmdcd.ComponentSpec{
			ID:           gmdcd.ComponentID(i + 1),
			Guarded:      c.Guarded,
			InternalRate: c.InternalRate,
			ExternalRate: c.ExternalRate,
		}
		if spec.InternalRate == 0 {
			spec.InternalRate = 2
		}
		if spec.ExternalRate == 0 {
			spec.ExternalRate = 0.5
		}
		for _, peer := range c.SendsTo {
			spec.Peers = append(spec.Peers, ids[peer])
		}
		topo.Components = append(topo.Components, spec)
	}
	minD, maxD := cfg.MinDelay, cfg.MaxDelay
	if minD == 0 {
		minD = time.Millisecond
	}
	if maxD == 0 {
		maxD = 20 * time.Millisecond
	}
	inner, err := cluster.NewSim(cluster.Config{
		Topology: topo, Seed: cfg.Seed, MinDelay: minD, MaxDelay: maxD,
		// Δ scales with the delay bound so any MaxDelay keeps the blocking
		// period inside the checkpoint interval.
		CheckpointInterval: 10 * maxD,
	})
	if err != nil {
		return nil, err
	}
	return &MultiSystem{inner: inner, ids: ids}, nil
}

// Start arms the workload.
func (s *MultiSystem) Start() { s.inner.Start() }

// RunFor advances the simulation by virtual seconds.
func (s *MultiSystem) RunFor(seconds float64) {
	s.inner.RunFor(time.Duration(seconds * float64(time.Second)))
}

// Quiesce stops the workload and drains in-flight traffic (the cluster's
// settle window: messages, acks and validations in flight all land).
func (s *MultiSystem) Quiesce() { s.inner.Settle() }

// ActivateSoftwareFault triggers the latent design fault in a guarded
// component's active version.
func (s *MultiSystem) ActivateSoftwareFault(name string) {
	s.inner.CorruptActive(s.ids[name])
}

// AcceptUpgrade ends guarded operation for one component with its upgrade
// accepted: the shadow retires and the upgraded version becomes
// high-confidence (the generalized seamless disengagement).
func (s *MultiSystem) AcceptUpgrade(name string) bool {
	return s.inner.Accept(s.ids[name])
}

// ComponentStatus describes one component's outcome.
type ComponentStatus struct {
	// Name identifies the component.
	Name string
	// Guarded reports whether it ran under guarded operation.
	Guarded bool
	// ShadowPromoted reports whether its trusted version took over.
	ShadowPromoted bool
	// Contaminated reports unresolved potential contamination.
	Contaminated bool
	// Checkpoints counts its Type-1 volatile checkpoints.
	Checkpoints int
}

// Status reports a component's state (the zero status for an unknown name).
func (s *MultiSystem) Status(name string) ComponentStatus {
	r, _ := s.inner.Active(s.ids[name])
	_, escorted := s.inner.Shadow(s.ids[name])
	return ComponentStatus{
		Name:           name,
		Guarded:        escorted,
		ShadowPromoted: r.Promoted,
		Contaminated:   r.Dirty,
		Checkpoints:    r.Checkpoints,
	}
}

// MultiReport summarizes the run.
type MultiReport struct {
	// Recoveries counts software error recoveries.
	Recoveries int
	// Takeovers counts shadow promotions.
	Takeovers int
	// Rollbacks, RollForwards and ForcedRollbacks count the local and
	// reconciliation recovery decisions.
	Rollbacks, RollForwards, ForcedRollbacks int
	// ATsPassed counts successful acceptance tests.
	ATsPassed int
}

// Report summarizes the run so far.
func (s *MultiSystem) Report() MultiReport {
	st := s.inner.Stats()
	return MultiReport{
		Recoveries:      st.Recoveries,
		Takeovers:       st.Takeovers,
		Rollbacks:       st.Rollbacks,
		RollForwards:    st.RollForwards,
		ForcedRollbacks: st.ForcedRollbacks,
		ATsPassed:       st.ATsPassed,
	}
}
