package scenario

import (
	"fmt"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/cluster"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// faultComponent is the component whose live embodiment a scheduled software
// fault corrupts: component 1, the first guarded component of the ring
// lowering (validateCluster requires guarded >= 1 when faults are scheduled).
const faultComponent = gmdcd.ComponentID(1)

// validateCluster checks the cluster-topology constraints: a cluster scenario
// drives the N-node engine (internal/cluster), whose surface is narrower than
// the three-process stack — no probes, no durable storage, no per-process obs
// families, and software recovery only in the simulator.
func (s *Spec) validateCluster() error {
	c := s.Topology.Cluster
	if c == nil {
		return nil
	}
	if c.Components < 2 {
		return fmt.Errorf("scenario %s: cluster needs at least two components, have %d", s.Name, c.Components)
	}
	if c.Guarded < 0 || c.Guarded > c.Components {
		return fmt.Errorf("scenario %s: cluster guarded count %d outside [0, %d]", s.Name, c.Guarded, c.Components)
	}
	if badRate(c.InternalRate) || badRate(c.ExternalRate) {
		return fmt.Errorf("scenario %s: cluster has a NaN/Inf/negative workload rate", s.Name)
	}
	if c.Fanout < 0 || c.GossipRounds < 0 {
		return fmt.Errorf("scenario %s: negative cluster gossip parameter", s.Name)
	}
	if c.GossipInterval < 0 {
		return fmt.Errorf("scenario %s: negative cluster gossip interval", s.Name)
	}
	if s.SchemeName() != "coordinated" {
		return fmt.Errorf("scenario %s: cluster scenarios run only the coordinated scheme", s.Name)
	}
	if s.Workload.Component1 != nil || s.Workload.Component2 != nil {
		return fmt.Errorf("scenario %s: cluster workload rates live in topology.cluster, not workload.component*", s.Name)
	}
	if s.Workload.Probes != nil {
		return fmt.Errorf("scenario %s: cluster scenarios have no probe path", s.Name)
	}
	if s.Topology.Transport != "" {
		return fmt.Errorf("scenario %s: cluster scenarios own their interconnect; topology.transport does not apply", s.Name)
	}
	if s.Topology.Durable {
		return fmt.Errorf("scenario %s: cluster scenarios have no durable storage layer", s.Name)
	}
	if len(s.Chaos.Crashes)+len(s.Chaos.FsyncStalls)+len(s.Chaos.DiskFaults) > 0 {
		return fmt.Errorf("scenario %s: crash/fsync/disk chaos is not lowered to clusters (partitions and frame faults only)", s.Name)
	}
	if len(s.Faults.Software) > 0 && c.Guarded < 1 {
		return fmt.Errorf("scenario %s: software faults need a guarded component", s.Name)
	}
	e := s.Expect
	if e.FaultCountersMatch != nil || e.CheckpointsRecorded != nil || e.MaxBlocking > 0 {
		return fmt.Errorf("scenario %s: cluster runs do not wire the per-process obs families this expectation reads", s.Name)
	}
	for _, k := range e.FaultKinds {
		if k == "crc-catch" || storageFaultKind(k) {
			return fmt.Errorf("scenario %s: fault kind %q is not injectable in clusters", s.Name, k)
		}
	}
	return nil
}

// clusterTopology lowers the cluster grammar to a gmdcd ring topology
// (zero rates take the engine's component defaults, as elsewhere in the
// grammar).
func (s *Spec) clusterTopology() gmdcd.Topology {
	c := s.Topology.Cluster
	in, ex := c.InternalRate, c.ExternalRate
	if in == 0 {
		in = defaultComponentLoad.InternalRate
	}
	if ex == 0 {
		ex = defaultComponentLoad.ExternalRate
	}
	return cluster.Ring(c.Components, c.Guarded, in, ex, s.Test())
}

// clusterAssignment exposes the component→node lowering (pure function of
// the topology, so chaos specs can name nodes without a side channel).
func (s *Spec) clusterAssignment() (cluster.Assignment, error) {
	return cluster.Assign(s.clusterTopology())
}

// clusterConfig builds the cluster engine configuration plus the private
// metrics registry the run snapshots.
func (s *Spec) clusterConfig() (cluster.Config, *obs.Registry, error) {
	chaosSpec, err := s.ChaosSpec()
	if err != nil {
		return cluster.Config{}, nil, err
	}
	tmin, tmax := s.Topology.Delays()
	c := s.Topology.Cluster
	reg := obs.NewRegistry()
	return cluster.Config{
		Topology:           s.clusterTopology(),
		Seed:               s.Seed,
		MinDelay:           tmin,
		MaxDelay:           tmax,
		CheckpointInterval: s.Topology.Interval(),
		Clock:              vtime.ClockConfig{MaxDeviation: s.Topology.Deviation(), DriftRate: s.Topology.Drift()},
		Retention:          s.Topology.StableRetention,
		Fanout:             c.Fanout,
		GossipRounds:       c.GossipRounds,
		GossipInterval:     c.GossipInterval.D(),
		Chaos:              chaosSpec,
		Obs:                reg,
	}, reg, nil
}

// runClusterSim executes a cluster spec in the discrete-event engine. Like
// runSim it is a pure function of the spec: identical reports across runs,
// machines and worker counts, at any membership size.
func runClusterSim(spec *Spec) (*outcome, error) {
	cfg, reg, err := spec.clusterConfig()
	if err != nil {
		return nil, err
	}
	sim, err := cluster.NewSim(cfg)
	if err != nil {
		return nil, err
	}
	for _, t := range spec.Faults.Software {
		sim.Engine().After(t.D(), func() { sim.CorruptActive(faultComponent) })
	}
	ins := driveCluster(spec, sim.Cluster)
	o, err := clusterOutcome(ModeSim, spec, ins, sim.ChaosStats(), reg, 0)
	if err != nil {
		return nil, err
	}
	conv := ins.Converged
	o.converged = &conv
	return o, nil
}

// runClusterLive executes a cluster spec on the live runtime: real
// goroutines, wall-clock timers and the encoded gossip wire format.
func runClusterLive(spec *Spec) (*outcome, error) {
	cfg, reg, err := spec.clusterConfig()
	if err != nil {
		return nil, err
	}
	lv, err := cluster.NewLive(cfg)
	if err != nil {
		return nil, err
	}
	defer lv.Stop() // driveCluster stops the cluster; this ends the node loops
	start := time.Now()
	for _, t := range spec.Faults.Software {
		timer := time.AfterFunc(t.D(), func() { lv.CorruptActive(faultComponent) })
		defer timer.Stop()
	}
	ins := driveCluster(spec, lv.Cluster)
	// Convergence needs quiescence the wall clock cannot guarantee; leave
	// it unset so the expectation reports skip, exactly like coord live.
	return clusterOutcome(ModeLive, spec, ins, lv.ChaosStats(), reg, time.Since(start).Seconds())
}

// driveCluster is the one run shape both worlds share: the workload window,
// the settle window, one consistent inspection, stop.
func driveCluster(spec *Spec, cl *cluster.Cluster) cluster.Inspection {
	cl.Start()
	cl.RunFor(spec.Duration.D())
	cl.Settle()
	ins := cl.Inspect()
	cl.Stop()
	return ins
}

// clusterOutcome maps one cluster inspection onto the shared outcome shape,
// so cluster expectations mean exactly what three-process ones do.
func clusterOutcome(mode string, spec *Spec, ins cluster.Inspection, cs chaos.Stats, reg *obs.Registry, wall float64) (*outcome, error) {
	asg, err := spec.clusterAssignment()
	if err != nil {
		return nil, err
	}
	o := &outcome{
		mode:        mode,
		snapshot:    reg.Snapshot(),
		wallSeconds: wall,
		line:        ins.Line,
	}
	if !ins.LineOK {
		o.lineErr = fmt.Errorf("no membership-wide recovery line (round %d)", ins.Round)
	}
	o.stableRounds = make(map[string]uint64, len(ins.StableRounds))
	for id, n := range ins.StableRounds {
		o.stableRounds[asg.Name(id)] = n
	}
	st := ins.Stats
	o.swRecoveries = st.Recoveries
	o.sent, o.delivered = st.MsgsSent, st.MsgsDelivered
	o.fanin, o.faninBound, o.faninKnown = st.MaxFanIn, ins.FanInBound, true
	if id, ok := ins.Active[faultComponent]; ok {
		o.activeName = asg.Name(id)
	} else {
		o.activeName = "none"
	}
	for _, c := range asg.Order {
		if _, ok := ins.Active[c]; !ok {
			o.failed = true
			o.failReason = fmt.Sprintf("component %d has no live replica", c)
			break
		}
	}
	if hasScheduledChaos(spec) {
		o.chaosStats = &cs
	}
	return o, nil
}
