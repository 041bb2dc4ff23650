package mdcd

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
)

// Figure 8 conformance: P1act's modified error-containment algorithm.

func TestActivePseudoCheckpointOnFirstInternalSend(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)

	if p.EffectiveDirty() {
		t.Fatal("pseudo dirty bit should start at 0")
	}
	p.EmitInternal()
	if !p.EffectiveDirty() {
		t.Fatal("pseudo dirty bit should be 1 after the first internal send")
	}
	if _, ok := p.Volatile.Latest(); !ok {
		t.Fatal("pseudo checkpoint not established")
	}
	c, _ := p.Volatile.Latest()
	if c.Kind != checkpoint.Pseudo {
		t.Fatalf("checkpoint kind = %v, want pseudo", c.Kind)
	}
	if c.Dirty {
		t.Fatal("pseudo checkpoint content must be captured clean (before the send)")
	}

	// A second internal send must not establish another checkpoint.
	p.EmitInternal()
	if p.Volatile.Saves() != 1 {
		t.Fatalf("volatile saves = %d, want 1", p.Volatile.Saves())
	}
}

func TestActiveInternalMessageCarriesConstantDirtyBit(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 3
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	ms := env.sentOfKind(msg.Internal)
	if len(ms) != 1 {
		t.Fatalf("sent %d internal messages, want 1", len(ms))
	}
	m := ms[0]
	if !m.DirtyBit {
		t.Fatal("P1act's dirty bit always equals 1")
	}
	if m.To != msg.P2 || m.SN != 1 || m.ChanSeq != 1 || m.Ndc != 3 {
		t.Fatalf("message fields = %+v", m)
	}
}

func TestActiveATPassClearsPseudoAndBroadcasts(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 7
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal() // pseudo → 1
	env.reset()

	p.EmitExternal()
	if p.EffectiveDirty() {
		t.Fatal("pseudo dirty bit should reset on AT pass")
	}
	ext := env.sentOfKind(msg.External)
	if len(ext) != 1 || ext[0].To != msg.Device {
		t.Fatalf("external sends = %+v", ext)
	}
	nots := env.sentOfKind(msg.PassedAT)
	if len(nots) != 2 {
		t.Fatalf("passed_AT notifications = %d, want 2 (P1sdw, P2)", len(nots))
	}
	dests := map[msg.ProcID]bool{}
	for _, n := range nots {
		dests[n.To] = true
		if n.ValidSN != 2 { // internal SN 1 + external SN 2, all valid
			t.Fatalf("ValidSN = %d, want 2", n.ValidSN)
		}
		if n.Ndc != 7 {
			t.Fatalf("Ndc = %d, want 7", n.Ndc)
		}
	}
	if !dests[msg.P1Sdw] || !dests[msg.P2] {
		t.Fatalf("notification destinations = %v", dests)
	}
	if got := p.ValidSN(msg.P1Act); got != 2 {
		t.Fatalf("own validity view = %d, want 2", got)
	}
}

func TestActiveATFailureTriggersRecovery(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Const(false)), env, env.rec.Record)
	p.EmitExternal()
	if len(env.recoveries) != 1 || env.recoveries[0] != msg.P1Act {
		t.Fatalf("recoveries = %v", env.recoveries)
	}
	if len(env.sent) != 0 {
		t.Fatalf("a failed AT must suppress the external message, sent %v", env.sent)
	}
	if got := p.Stats().ATsFailed; got != 1 {
		t.Fatalf("ATsFailed = %d", got)
	}
}

func TestActivePassedATFromPeerClearsPseudo(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 2
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	if !p.EffectiveDirty() {
		t.Fatal("setup: pseudo should be 1")
	}
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P2, ValidSN: 1, Ndc: 2})
	if p.EffectiveDirty() {
		t.Fatal("matching-Ndc passed_AT should reset the pseudo dirty bit")
	}
}

func TestActivePassedATNdcMismatchDeferredDuringBlocking(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 2
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	env.blocking = true
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P2, ValidSN: 1, Ndc: 1})
	if !p.EffectiveDirty() {
		t.Fatal("a mismatched-Ndc passed_AT must not reset the pseudo dirty bit during blocking")
	}
	if got := p.Stats().RejectedNdc; got != 1 {
		t.Fatalf("RejectedNdc = %d", got)
	}
	// The knowledge is deferred, not dropped: after the blocking period
	// (with the local Ndc advanced past the commit) it takes effect.
	env.blocking = false
	env.ndc = 3
	p.ReleaseHeld()
	if p.EffectiveDirty() {
		t.Fatal("deferred notification should reset the pseudo dirty bit after blocking")
	}
}

func TestActivePassedATMismatchAcceptedOutsideBlocking(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 2
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P2, ValidSN: 1, Ndc: 1})
	if p.EffectiveDirty() {
		t.Fatal("outside a blocking period the Ndc gate must not discard validations")
	}
}

func TestActiveNextInternalAfterValidationCheckpointsAgain(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal() // pseudo ckpt #1
	p.EmitExternal() // AT pass, pseudo → 0
	p.EmitInternal() // pseudo ckpt #2
	if p.Volatile.Saves() != 2 {
		t.Fatalf("volatile saves = %d, want 2", p.Volatile.Saves())
	}
}

func TestActiveOriginalModeExemptFromCheckpointing(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, originalCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	p.EmitExternal()
	p.EmitInternal()
	if p.Volatile.Saves() != 0 {
		t.Fatalf("original-mode P1act must not checkpoint, saves = %d", p.Volatile.Saves())
	}
	if !p.EffectiveDirty() {
		t.Fatal("original-mode P1act's dirty bit is constant 1")
	}
}

func TestActiveAppMessageHeldDuringBlocking(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	env.blocking = true
	p.Receive(internalFrom(msg.P2, 1, 1, false))
	if p.State.Step != 0 {
		t.Fatal("message must not reach the application during blocking")
	}
	if p.HeldCount() != 1 {
		t.Fatalf("HeldCount = %d", p.HeldCount())
	}
	env.blocking = false
	p.ReleaseHeld()
	if p.State.Step != 1 {
		t.Fatal("held message not applied after blocking")
	}
	if p.HeldCount() != 0 {
		t.Fatal("held queue not drained")
	}
}

func TestActivePassedATMonitoredDuringBlocking(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 1
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	env.blocking = true
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P2, ValidSN: 1, Ndc: 1})
	if p.EffectiveDirty() {
		t.Fatal("adapted protocol must process passed_AT during blocking")
	}
}

func TestFailedProcessIsInert(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Demote()
	p.EmitInternal()
	p.EmitExternal()
	p.Receive(internalFrom(msg.P2, 1, 1, false))
	if len(env.sentOfKind(msg.Internal))+len(env.sentOfKind(msg.External)) != 0 {
		t.Fatal("demoted process must not send")
	}
	if p.State.Step != 0 {
		t.Fatal("demoted process must not consume")
	}
	if !p.Failed() {
		t.Fatal("Failed() should report true")
	}
}

func TestDirtyChangedHookFiresOnPseudoTransitions(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	var transitions []bool
	p.DirtyChanged = func(d bool) { transitions = append(transitions, d) }
	p.EmitInternal() // pseudo 0→1
	p.EmitExternal() // AT pass: 1→0
	if len(transitions) != 2 || transitions[0] != true || transitions[1] != false {
		t.Fatalf("transitions = %v", transitions)
	}
}

func TestTraceEventsRecorded(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	p.EmitExternal()
	if env.rec.Count(msg.P1Act, trace.CheckpointTaken) != 1 {
		t.Fatal("checkpoint event missing")
	}
	if env.rec.Count(msg.P1Act, trace.ATPassed) != 1 {
		t.Fatal("AT-pass event missing")
	}
}
