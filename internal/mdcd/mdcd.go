// Package mdcd implements the message-driven confidence-driven (MDCD) error
// containment and recovery protocol of Tai et al., in both its original form
// and the modified form of the paper's Appendix A that enables synergistic
// coordination with time-based stable-storage checkpointing.
//
// The architecture is the paper's guarded-operation configuration: an active
// process P1act running the low-confidence version of application component
// 1, a shadow process P1sdw running the high-confidence version (its outgoing
// messages are suppressed and logged), and a process P2 running the second,
// high-confidence component. Volatile checkpoints are established only at
// message events that change confidence in a process state:
//
//   - Type-1: immediately before a state becomes potentially contaminated;
//   - Type-2: right after a potentially contaminated state is validated
//     (original protocol only — the modified protocol eliminates these);
//   - pseudo: P1act's checkpoint before its first internal send after a
//     validation, guarded by its pseudo dirty bit (modified protocol).
package mdcd

import (
	"math/rand"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Mode selects the protocol variant.
type Mode uint8

// Protocol variants.
const (
	// ModeOriginal is the original MDCD protocol with Type-2 checkpoints
	// and no pseudo dirty bit (P1act is exempt from checkpointing).
	ModeOriginal Mode = iota + 1
	// ModeModified is the Appendix A variant: Type-2 establishment is
	// eliminated, P1act maintains a pseudo dirty bit and pseudo
	// checkpoints, and knowledge updates are gated by the stable
	// checkpoint sequence number Ndc.
	ModeModified
)

// Role identifies which of the three error-containment algorithms a process
// runs.
type Role uint8

// Process roles.
const (
	// RoleActive runs Figure 8's algorithm (P1act).
	RoleActive Role = iota + 1
	// RoleShadow runs Figure 9's algorithm (P1sdw).
	RoleShadow
	// RolePeer runs Figure 10's algorithm (P2).
	RolePeer
	// RolePlain is a high-confidence process outside guarded operation
	// (the TB-only baseline): it exchanges messages with its counterpart
	// with no shadow, no acceptance tests and a permanently clean state.
	RolePlain
)

// Env is the node-local environment a process runs against. The discrete-
// event simulator and the live goroutine middleware both implement it.
type Env interface {
	// Now returns the current true time (used only to stamp checkpoints
	// and trace events, never for protocol decisions).
	Now() vtime.Time
	// Rand is the deterministic randomness source (AT coverage draws).
	Rand() *rand.Rand
	// Send hands a message to the interconnect.
	Send(m msg.Message)
	// InBlocking reports whether the node's TB checkpointer is inside a
	// blocking period.
	InBlocking() bool
	// Ndc returns the node's current stable-storage checkpoint sequence
	// number, piggybacked on messages and used to gate knowledge updates.
	Ndc() uint64
	// RequestErrorRecovery reports a failed acceptance test; the recovery
	// orchestrator runs the software error recovery procedure.
	RequestErrorRecovery(detector msg.ProcID)
}

// Config parameterizes a process's containment algorithm.
type Config struct {
	// Mode selects original or modified MDCD.
	Mode Mode
	// GateOnNdc enables the coordination rule: during a blocking period a
	// passed-AT notification updates the dirty (or pseudo dirty) bit only
	// when its piggybacked Ndc matches the local Ndc; a mismatched
	// notification is deferred until the blocking period ends. Disabled
	// in the strawman baselines.
	GateOnNdc bool
	// HoldPassedATInBlocking makes blocking periods hold passed-AT
	// notifications too (the original TB protocol blocks all messages;
	// the adapted protocol monitors passed-AT during blocking).
	HoldPassedATInBlocking bool
	// Test is the acceptance test applied to external messages.
	Test at.Test
}
