// Package gmdcd is the topology vocabulary of the extended MDCD protocol the
// paper references as its general-purpose direction ("we have recently
// extended the MDCD approach by removing the architectural restrictions on
// the underlying system" — reference [5]): guarded operation for an arbitrary
// number of application components in an arbitrary communication topology,
// instead of the DSN paper's fixed three-process architecture. The protocol
// itself runs in package cluster, one node per replica.
//
// The generalization replaces the single dirty bit and single valid-message
// register with per-origin vectors (package cluster holds them densely, one
// entry per component in ID order, zero meaning none yet). Every process
// tracks, for each guarded (low-confidence) component g:
//
//   - influence[g]: the highest message SN of g's stream whose effects —
//     direct or transitive — its state reflects (piggybacked on every
//     internal message);
//   - valid[g]: the highest SN of g's stream verified correct.
//
// A process is potentially contaminated iff influence[g] > valid[g] for some
// g. A Type-1 volatile checkpoint is established immediately before the
// first contaminating application; an acceptance test on an external message
// validates the sender's whole influence vector and broadcasts it, clearing
// contamination transitively everywhere the vector covers. Error recovery is
// confidence-adaptive exactly as in the three-process protocol: dirty
// processes roll back to their volatile checkpoints, clean ones roll
// forward, and the shadows of the implicated guarded components take over.
//
// Package cluster runs this error-containment layer (volatile checkpoints,
// software fault tolerance) coordinated with time-based stable-storage
// checkpointing on every node — beyond three processes, which the paper
// leaves as future work.
package gmdcd

import (
	"fmt"

	"github.com/synergy-ft/synergy/internal/at"
)

// ComponentID identifies an application component.
type ComponentID uint16

// String implements fmt.Stringer.
func (c ComponentID) String() string { return fmt.Sprintf("C%d", uint16(c)) }

// ComponentSpec declares one component of the system.
type ComponentSpec struct {
	// ID is the component's identity (unique within a topology).
	ID ComponentID
	// Guarded marks a low-confidence component: its active process is
	// escorted by a shadow running the trusted version.
	Guarded bool
	// Peers lists the components this one sends internal messages to.
	Peers []ComponentID
	// InternalRate and ExternalRate drive the component's workload, in
	// messages per second.
	InternalRate, ExternalRate float64
}

// Topology declares the whole system.
type Topology struct {
	// Components lists every component.
	Components []ComponentSpec
	// Test is the acceptance test applied to external messages of
	// potentially contaminated processes.
	Test at.Test
}

// Validate checks the topology is well-formed.
func (t Topology) Validate() error {
	if len(t.Components) < 2 {
		return fmt.Errorf("gmdcd: need at least two components, have %d", len(t.Components))
	}
	if t.Test == nil {
		return fmt.Errorf("gmdcd: nil acceptance test")
	}
	seen := make(map[ComponentID]bool, len(t.Components))
	for _, c := range t.Components {
		if seen[c.ID] {
			return fmt.Errorf("gmdcd: duplicate component %v", c.ID)
		}
		seen[c.ID] = true
		if c.InternalRate < 0 || c.ExternalRate < 0 {
			return fmt.Errorf("gmdcd: negative rate on %v", c.ID)
		}
	}
	for _, c := range t.Components {
		for _, p := range c.Peers {
			if !seen[p] {
				return fmt.Errorf("gmdcd: %v peers with unknown %v", c.ID, p)
			}
			if p == c.ID {
				return fmt.Errorf("gmdcd: %v peers with itself", c.ID)
			}
		}
	}
	guarded := 0
	for _, c := range t.Components {
		if c.Guarded {
			guarded++
		}
	}
	if guarded == 0 {
		return fmt.Errorf("gmdcd: no guarded component — nothing to escort")
	}
	return nil
}
