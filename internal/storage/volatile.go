// Package storage models the two storage tiers the coordinated protocols
// write checkpoints to: node-local volatile storage (RAM), which is cheap but
// lost on a hardware fault, and stable storage (disk), which survives crashes
// and supports the adapted TB protocol's abort-and-replace write semantics.
package storage

import "github.com/synergy-ft/synergy/internal/checkpoint"

// Volatile is a process's volatile-storage checkpoint slot. Per the MDCD
// protocol a process never rolls back further than its most recent
// checkpoint, so only the latest checkpoint is retained.
type Volatile struct {
	latest *checkpoint.Checkpoint
	saves  uint64
}

// Save stores a checkpoint, displacing any previous one. The store takes
// ownership: the caller hands over a checkpoint nothing else writes to (a
// fresh snapshot), and a reader that may change what it is given clones it.
func (v *Volatile) Save(c *checkpoint.Checkpoint) {
	v.latest = c
	v.saves++
}

// Latest returns the most recent checkpoint, or false if none exists (or the
// node has crashed since the last save). It is the stored checkpoint itself,
// not a copy.
func (v *Volatile) Latest() (*checkpoint.Checkpoint, bool) {
	if v.latest == nil {
		return nil, false
	}
	return v.latest, true
}

// Crash models the loss of volatile contents when the hosting node fails.
func (v *Volatile) Crash() { v.latest = nil }

// Saves returns the number of checkpoints established, an overhead metric.
func (v *Volatile) Saves() uint64 { return v.saves }
