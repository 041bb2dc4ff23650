package mdcd

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// Figure 9 conformance: P1sdw's modified error-containment algorithm.

func TestShadowSuppressesAndLogs(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	p.EmitExternal()
	p.EmitInternal()
	if len(env.sent) != 0 {
		t.Fatalf("shadow transmitted %d messages, want 0", len(env.sent))
	}
	if p.MsgLogLen() != 3 {
		t.Fatalf("log length = %d, want 3", p.MsgLogLen())
	}
	if got := p.Stats().Suppressed; got != 3 {
		t.Fatalf("Suppressed = %d", got)
	}
	// Counters advance in lockstep with the active process.
	if p.SentTo(msg.P2) != 2 || p.SentTo(msg.Device) != 1 {
		t.Fatalf("sentTo P2=%d device=%d", p.SentTo(msg.P2), p.SentTo(msg.Device))
	}
}

func TestShadowType1CheckpointOnFirstDirtyMessage(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)

	// A clean message contaminates nothing and takes no checkpoint.
	p.Receive(internalFrom(msg.P2, 1, 1, false))
	if p.Dirty() || p.Volatile.Saves() != 0 {
		t.Fatal("clean message must not dirty the shadow or checkpoint")
	}

	// The first dirty message triggers a Type-1 checkpoint, established
	// immediately before the state becomes potentially contaminated.
	p.Receive(internalFrom(msg.P2, 2, 2, true))
	if !p.Dirty() {
		t.Fatal("dirty message must set the dirty bit")
	}
	c, ok := p.Volatile.Latest()
	if !ok || c.Kind != checkpoint.Type1 {
		t.Fatalf("checkpoint = %+v, %v", c, ok)
	}
	if c.Dirty {
		t.Fatal("Type-1 content must be the pre-contamination (clean) state")
	}
	if c.State.Step != 1 {
		t.Fatalf("Type-1 captured step %d, want 1 (before applying the dirty message)", c.State.Step)
	}

	// Further dirty messages do not re-checkpoint.
	p.Receive(internalFrom(msg.P2, 3, 3, true))
	if p.Volatile.Saves() != 1 {
		t.Fatalf("saves = %d, want 1", p.Volatile.Saves())
	}
}

func TestShadowAcksConsumedMessages(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, false))
	acks := env.sentOfKind(msg.Ack)
	if len(acks) != 1 || acks[0].To != msg.P2 || acks[0].AckSN != 1 {
		t.Fatalf("acks = %+v", acks)
	}
}

func TestShadowPassedATReclaimsLogAndClearsDirty(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 4
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal() // log SN 1
	p.EmitInternal() // log SN 2
	p.Receive(internalFrom(msg.P2, 1, 1, true))
	p.EmitInternal() // log SN 3

	// P1act reports SN 2 valid (covers the shadow's first two entries).
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 2, Ndc: 4})
	if p.Dirty() {
		t.Fatal("accepted passed_AT must clear the dirty bit")
	}
	if p.MsgLogLen() != 1 {
		t.Fatalf("log length = %d, want 1 (entries ≤ ValidSN reclaimed)", p.MsgLogLen())
	}
	if got := p.ValidSN(msg.P1Act); got != 2 {
		t.Fatalf("VRact = %d, want 2", got)
	}
}

func TestShadowPassedATGateDefersMismatchDuringBlocking(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 4
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, true))
	env.blocking = true
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 1, Ndc: 3})
	if !p.Dirty() {
		t.Fatal("mismatched-Ndc notification must not clear the dirty bit during blocking")
	}
	env.blocking = false
	p.ReleaseHeld()
	if p.Dirty() {
		t.Fatal("deferred notification should clear the dirty bit after blocking")
	}
}

func TestShadowUngatedAcceptsAnyNdc(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 4
	cfg := Config{Mode: ModeModified, GateOnNdc: false, Test: at.Perfect()}
	p := NewProcess(msg.P1Sdw, RoleShadow, cfg, env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, true))
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 1, Ndc: 0})
	if p.Dirty() {
		t.Fatal("ungated configuration should accept any Ndc")
	}
}

func TestShadowOriginalModeType2OnValidation(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, originalCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, true)) // Type-1, dirty
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 1})
	if p.Dirty() {
		t.Fatal("validation must clear the dirty bit")
	}
	c, ok := p.Volatile.Latest()
	if !ok || c.Kind != checkpoint.Type2 {
		t.Fatalf("latest checkpoint = %+v, want Type-2", c)
	}
	if p.Volatile.Saves() != 2 {
		t.Fatalf("saves = %d, want 2 (Type-1 then Type-2)", p.Volatile.Saves())
	}
}

func TestShadowModifiedModeEliminatesType2(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 0
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, true)) // Type-1, dirty
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 1, Ndc: 0})
	if p.Dirty() {
		t.Fatal("validation must clear the dirty bit")
	}
	if p.Volatile.Saves() != 1 {
		t.Fatalf("saves = %d, want 1 (no Type-2 under the modified protocol)", p.Volatile.Saves())
	}
}

func TestShadowDuplicateDelivterySuppressed(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	m := internalFrom(msg.P2, 1, 1, false)
	p.Receive(m)
	p.Receive(m)
	if p.State.Step != 1 {
		t.Fatalf("duplicate applied: step = %d", p.State.Step)
	}
	if got := p.Stats().Duplicates; got != 1 {
		t.Fatalf("Duplicates = %d", got)
	}
	if acks := env.sentOfKind(msg.Ack); len(acks) != 2 {
		t.Fatalf("duplicates must be re-acked: %d acks", len(acks))
	}
}

func TestShadowTakeOverResendsUnvalidatedLog(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 0
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal() // SN 1 → P2
	p.EmitExternal() // SN 2 → device (stays suppressed on takeover)
	p.EmitInternal() // SN 3 → P2
	// SN 1 validated; its log entry is reclaimed.
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 1, Ndc: 0})

	p.TakeOver()
	if !p.Promoted() {
		t.Fatal("shadow should be promoted")
	}
	resent := env.sentOfKind(msg.Internal)
	if len(resent) != 1 {
		t.Fatalf("re-sent %d messages, want 1 (only the unvalidated internal)", len(resent))
	}
	if resent[0].SN != 3 || resent[0].To != msg.P2 || resent[0].DirtyBit {
		t.Fatalf("re-sent message = %+v", resent[0])
	}
	if len(env.sentOfKind(msg.External)) != 0 {
		t.Fatal("unvalidated external log entries must remain suppressed")
	}
	if p.MsgLogLen() != 0 {
		t.Fatal("log should be cleared after takeover")
	}
}

func TestPromotedShadowSendsForReal(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.TakeOver()
	env.reset()
	p.EmitInternal()
	ms := env.sentOfKind(msg.Internal)
	if len(ms) != 1 || ms[0].To != msg.P2 || ms[0].DirtyBit {
		t.Fatalf("promoted shadow sends = %+v", ms)
	}
	p.EmitExternal() // clean → no AT required
	if got := p.Stats().ATsRun; got != 0 {
		t.Fatalf("clean promoted shadow ran %d ATs", got)
	}
	if len(env.sentOfKind(msg.External)) != 1 {
		t.Fatal("promoted shadow external not sent")
	}
}
