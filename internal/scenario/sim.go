package scenario

import (
	"fmt"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// RunSim executes the spec in the discrete-event simulator. The run is a
// pure function of the spec: virtual time, seeded randomness and fixed
// iteration orders make the returned report byte-identical across
// executions, machines and worker counts.
func RunSim(spec *Spec) (*Report, error) {
	res := run(Job{Spec: spec, Mode: ModeSim})
	return res.Report, res.Err
}

// runSim is RunSim up to, not including, the evaluation.
func runSim(spec *Spec) (*outcome, error) {
	if spec.Topology.Cluster != nil {
		return runClusterSim(spec)
	}
	scheme, err := spec.SchemeID()
	if err != nil {
		return nil, err
	}
	chaosSpec, err := spec.ChaosSpec()
	if err != nil {
		return nil, err
	}
	tmin, tmax := spec.Topology.Delays()
	reg := obs.NewRegistry()

	cfg := coord.DefaultConfig(scheme, spec.Seed)
	cfg.Clock = vtime.ClockConfig{MaxDeviation: spec.Topology.Deviation(), DriftRate: spec.Topology.Drift()}
	cfg.Net.MinDelay, cfg.Net.MaxDelay = tmin, tmax
	cfg.CheckpointInterval = spec.Topology.Interval()
	cfg.Workload1 = spec.Workload.Load(spec.Workload.Component1)
	cfg.Workload2 = spec.Workload.Load(spec.Workload.Component2)
	cfg.Test = spec.Test()
	cfg.Chaos = chaosSpec
	cfg.Obs = reg

	sys, err := coord.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()

	// Lower crashes the way the live runner does: CrashNode fails the host,
	// RebootNode rebuilds it from the rounds its host kept and runs
	// system-wide recovery.
	var schedErrs []string
	for i, c := range chaosSpec.Crashes {
		if sys.Process(c.Victim) == nil {
			return nil, fmt.Errorf("scenario %s: crash victim %v not in this scheme", spec.Name, c.Victim)
		}
		i, c, node := i, c, msg.NodeID(c.Victim) // node i hosts process i
		eng.After(c.At, func() { sys.CrashNode(node) })
		if c.Downtime > 0 {
			eng.After(c.At+c.Downtime, func() {
				if err := sys.RebootNode(node); err != nil {
					schedErrs = append(schedErrs, fmt.Sprintf("crash %d reboot: %v", i, err))
				}
			})
		}
	}
	for _, t := range spec.Faults.Software {
		eng.After(t.D(), sys.ActivateSoftwareFault)
	}

	sys.Start()
	sys.RunUntil(vtime.Zero.Add(spec.Duration.D()))
	sys.Quiesce()

	o := collect(ModeSim, sys, reg)
	conv := sys.ReplicasConverged()
	o.converged = &conv
	if st, ok := sys.ChaosStats(); ok {
		o.chaosStats = &st
	} else if hasScheduledChaos(spec) {
		// Crash/stall-only scenarios install no frame injector; report
		// zero frame stats so fault_kinds can still evaluate.
		o.chaosStats = &chaos.Stats{}
	}
	for _, e := range schedErrs {
		o.failed = true
		if o.failReason != "" {
			o.failReason += "; "
		}
		o.failReason += e
	}
	return o, nil
}

// hasScheduledChaos reports whether the spec schedules any chaos at all.
func hasScheduledChaos(spec *Spec) bool {
	sp, err := spec.ChaosSpec()
	return err == nil && sp.Active()
}
