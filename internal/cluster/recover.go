package cluster

import (
	"slices"

	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// Software error recovery: the gmdcd system-wide procedure lowered onto
// nodes, coupled to the TB layer. An acceptance-test failure at the detector
// flushes in-flight reliable traffic (epoch bump), demotes the blamed
// guarded actives, lets every surviving replica make its confidence-adaptive
// local decision, and reconciles orphan receptions away. The TB coupling
// happens inside cnode.restore: a rollback aborts any in-flight stable write
// (a pre-recovery state must not commit) and reconciles the unacknowledged
// log against the rewound send counters.

// recoverFrom is called by a detector whose acceptance test just failed, from
// inside its own critical section: the system-wide procedure goes through the
// runtime (inline on the simulator, a fresh goroutine on the wall clock).
func (cl *Cluster) recoverFrom(detector *cnode) {
	epoch := cl.epoch
	cl.rt.Recover(func() { cl.softwareRecovery(detector, epoch) })
}

// softwareRecovery runs with the whole membership held. The failure was
// detected in epoch; if a recovery has completed since (another detector, or
// the same one failing again before this procedure had the membership), the
// failing state is already discarded and there is nothing left to do.
func (cl *Cluster) softwareRecovery(detector *cnode, epoch uint64) {
	cl.hold(cl.asg.Nodes)
	defer cl.release(cl.asg.Nodes)
	if epoch != cl.epoch || cl.closed.Load() {
		return
	}
	cl.cnt.recoveries.Add(1)
	cl.epoch++ // flush in-flight traffic from discarded states

	// Blame attribution (gmdcd): a guarded active failing its own test
	// indicts exactly itself; any other detector cannot discriminate among
	// the unvalidated guarded influences its state reflects, so all are
	// demoted. Iterate in topology order for determinism.
	blamed := make([]bool, len(cl.comps.ids)) // by slot
	if detector.guardedActive() {
		blamed[detector.slot] = true
	} else {
		for g, inf := range detector.influence {
			if inf > detector.valid[g] {
				blamed[g] = true
			}
		}
	}
	var promoted []*cnode
	for _, g := range cl.asg.Order {
		if !blamed[cl.comps.of(g)] {
			continue
		}
		act := cl.nodes[cl.asg.Active[g]]
		sdw := cl.nodes[cl.asg.Shadow[g]]
		if sdw == nil || act.failed.Load() || sdw.failed.Load() {
			continue // unguarded, already demoted, or accepted (shadow retired)
		}
		act.retire()
		cl.cnt.takeovers.Add(1)
		// The shadow first makes its own local decision, then assumes
		// the active role.
		if sdw.recoverLocal() {
			cl.cnt.rollbacks.Add(1)
		} else {
			cl.cnt.rollForwards.Add(1)
		}
		sdw.promoted = true
		promoted = append(promoted, sdw)
	}
	// Everyone else decides locally — a shadow an earlier recovery promoted
	// included: it is a survivor like any other, and may hold this one's
	// corrupted messages.
	for _, c := range cl.asg.Order {
		for _, n := range cl.replicasOf(c) {
			if slices.Contains(promoted, n) {
				continue
			}
			if n.recoverLocal() {
				cl.cnt.rollbacks.Add(1)
			} else {
				cl.cnt.rollForwards.Add(1)
			}
		}
	}
	cl.reconcile()
	// Takeover re-sends go out last: reconcile may force a promoted shadow
	// further back as a receiver, and a logged message re-sent from a state
	// it then leaves would be an orphan at everyone who applies it.
	for _, sdw := range promoted {
		sdw.resendLog()
	}
}

// reconcile eliminates orphan receptions from the post-decision global
// state (gmdcd semantics: with several guarded components, a rollback
// baseline can predate messages a forward-rolled receiver consumed; such
// receivers are forced back — to their own baseline or genesis — until no
// channel reflects a reception its live sender has not produced).
func (cl *Cluster) reconcile() {
	for changed := true; changed; {
		changed = false
		for _, from := range cl.asg.Order {
			sender := cl.liveNode(from)
			if sender == nil {
				continue
			}
			for _, to := range sender.spec.Peers {
				sent := sender.sentSeq[cl.comps.of(to)]
				for _, r := range cl.replicasOf(to) {
					if r.recvSeq[sender.slot] <= sent {
						continue
					}
					target := r.volatileCkpt
					if target != nil && target.recvSeq[sender.slot] > sent {
						target = nil // baseline still orphaned: genesis
					}
					r.restore(target)
					cl.cnt.forcedRollbacks.Add(1)
					changed = true
				}
			}
		}
	}
}

// CorruptActive activates the design fault in a guarded component's active —
// the low-confidence version, the only place the paper's software faults
// live (the hardware-fault analog is not modeled here). The next suspect
// external emission fails its acceptance test and triggers system-wide
// recovery. It reports false if the component is not, or no longer, under
// guarded operation.
func (cl *Cluster) CorruptActive(c gmdcd.ComponentID) (corrupted bool) {
	cl.gated(cl.targetNodes(c), func() {
		if n := cl.liveNode(c); n != nil && n.guardedActive() {
			n.state.Corrupt()
			corrupted = true
		}
	})
	return corrupted
}

// retire takes a replica out of service: a demoted active, or the shadow of an
// accepted upgrade. Its in-flight stable write must not commit.
func (n *cnode) retire() {
	n.failed.Store(true)
	n.cp.AbortCycle()
	n.cp.Stop()
}

// Accept ends guarded operation for one component with its upgrade accepted
// (the generalized form of the paper's seamless disengagement): the shadow
// retires, the active becomes high-confidence — its emissions stop carrying
// own-stream suspicion — and its outstanding stream positions are declared
// valid system-wide over the passed-AT dissemination path, so downstream
// contamination bookkeeping clears. It reports false if the component is not
// under guarded operation.
func (cl *Cluster) Accept(c gmdcd.ComponentID) (accepted bool) {
	sid, guarded := cl.asg.Shadow[c]
	if !guarded {
		return false
	}
	cl.gated(cl.targetNodes(c), func() {
		act, sdw := cl.nodes[cl.asg.Active[c]], cl.nodes[sid]
		if act.failed.Load() || sdw.failed.Load() {
			return // taken over, or already accepted
		}
		sdw.retire()
		sdw.log, sdw.held, sdw.pending = nil, nil, nil
		before := act.dirty()
		act.spec.Guarded = false
		// Everything the accepted version has emitted is now trusted. The
		// broadcast supersedes the node's last passed-AT update, so it carries
		// that validation too — and nothing more: foreign positions nobody
		// tested stay unvalidated.
		validated := act.lastPassed()
		validated[act.slot] = max(validated[act.slot], act.ownSN)
		mergeVec(act.valid, validated)
		act.gsp.Broadcast(updPassedAT, encodePassedAT(cl.epoch, c, cl.comps, validated))
		act.notifyDirty(before)
		accepted = true
	})
	return accepted
}
