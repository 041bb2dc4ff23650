package mdcd

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// Tests for the protocol completions documented in DESIGN.md §8.

// --- checkpoint-relative acknowledgements ---

func TestAckImmediateWhenClean(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, false))
	if got := len(env.sentOfKind(msg.Ack)); got != 1 {
		t.Fatalf("clean application should ack immediately, got %d", got)
	}
}

func TestAckDeferredWhileDirty(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 1
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 5, true)) // dirties the shadow
	p.Receive(internalFrom(msg.P2, 2, 6, true))
	if got := len(env.sentOfKind(msg.Ack)); got != 0 {
		t.Fatalf("dirty applications must defer acks, got %d", got)
	}
	// Validation releases the deferred acks: the applied messages are now
	// part of the restorable state.
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 6, Ndc: 1})
	acks := env.sentOfKind(msg.Ack)
	if len(acks) != 2 {
		t.Fatalf("validation should flush deferred acks, got %d", len(acks))
	}
	if acks[0].AckSN != 1 || acks[1].AckSN != 2 {
		t.Fatalf("acks out of order: %+v", acks)
	}
}

func TestDeferredAcksDiscardedOnRollback(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 5, true))
	rolled, _, err := p.RecoverSoftware()
	if err != nil || !rolled {
		t.Fatalf("setup: %v %v", rolled, err)
	}
	// The rolled-back application is not restorable; its ack must die
	// with it so the sender re-delivers.
	if got := len(env.sentOfKind(msg.Ack)); got != 0 {
		t.Fatalf("rollback must discard deferred acks, got %d", got)
	}
	// Re-delivery after rollback is a fresh (not duplicate) application.
	p.Receive(internalFrom(msg.P2, 1, 5, true))
	if p.Stats().Duplicates != 0 {
		t.Fatal("post-rollback redelivery wrongly treated as duplicate")
	}
}

func TestDuplicateAckAlsoDeferredWhileDirty(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 2
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	m := internalFrom(msg.P2, 1, 5, true)
	p.Receive(m)
	p.Receive(m) // duplicate while still dirty
	if got := len(env.sentOfKind(msg.Ack)); got != 0 {
		t.Fatalf("duplicate re-ack must respect deferral, got %d", got)
	}
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 5, Ndc: 2})
	if got := len(env.sentOfKind(msg.Ack)); got != 2 {
		t.Fatalf("flush should release both acks, got %d", got)
	}
}

// --- reception contamination for P1act ---

func TestActiveType1OnDirtyReception(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	if p.EffectiveDirty() {
		t.Fatal("setup: effective bit should start clean")
	}
	p.Receive(internalFrom(msg.P2, 1, 1, true))
	if !p.EffectiveDirty() {
		t.Fatal("a dirty reception must set P1act's effective bit")
	}
	c, ok := p.Volatile.Latest()
	if !ok || c.Kind != checkpoint.Type1 {
		t.Fatalf("Type-1 baseline missing: %+v %v", c, ok)
	}
	if c.RecvFrom[msg.P2] != 0 {
		t.Fatal("the baseline must predate the dirty reception")
	}
	// The ack for that reception is deferred until validation.
	if got := len(env.sentOfKind(msg.Ack)); got != 0 {
		t.Fatalf("dirty reception at P1act must defer its ack, got %d", got)
	}
}

func TestActivePseudoCheckpointDoesNotReplaceType1Baseline(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, true)) // Type-1 baseline
	p.EmitInternal()                            // pseudo bit sets, but no new checkpoint
	c, _ := p.Volatile.Latest()
	if c.Kind != checkpoint.Type1 {
		t.Fatalf("baseline replaced by %v — contamination laundered", c.Kind)
	}
	if p.Volatile.Saves() != 1 {
		t.Fatalf("saves = %d, want 1", p.Volatile.Saves())
	}
}

func TestActiveValidationClearsReceptionContamination(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 3
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P2, 1, 1, true))
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P2, ValidSN: 1, Ndc: 3})
	if p.EffectiveDirty() {
		t.Fatal("validation must clear the reception-contamination bit")
	}
}

// --- influence guard against stale validations ---

func TestStaleActNotificationCannotLaunderTransitiveContamination(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 0
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	// P2's message reflects P1act's stream up to SN 10 (the piggybacked
	// influence high-water) and is dirty.
	p.Receive(msg.Message{
		Kind: msg.Internal, From: msg.P2, SN: 50, ChanSeq: 1,
		DirtyBit: true, ValidSN: 10,
	})
	if !p.Dirty() {
		t.Fatal("setup: shadow should be dirty")
	}
	// A notification issued before the fault covers only SN 7 — less than
	// the influence the shadow's state reflects. It must not clean.
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 7, Ndc: 0})
	if !p.Dirty() {
		t.Fatal("stale validation laundered transitive contamination")
	}
	if p.Stats().RejectedStale != 1 {
		t.Fatalf("RejectedStale = %d", p.Stats().RejectedStale)
	}
	// A covering notification cleans.
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 10, Ndc: 0})
	if p.Dirty() {
		t.Fatal("covering validation should clean the shadow")
	}
}

func TestInfluenceTracksDirectComponent1Stream(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 9, true))
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 8, Ndc: 0})
	if !p.Dirty() {
		t.Fatal("validation covering less than the received stream must not clean")
	}
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 9, Ndc: 0})
	if p.Dirty() {
		t.Fatal("covering validation should clean")
	}
}

// --- upgrade commitment (the paper's seamless disengagement) ---

func TestCommitUpgradeActiveBecomesPlain(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Act, RoleActive, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal() // pseudo = 1
	p.CommitUpgrade()
	if p.Role() != RolePlain {
		t.Fatalf("role = %v, want plain", p.Role())
	}
	if p.EffectiveDirty() || p.Dirty() {
		t.Fatal("dirty bits must be constant zero after commit")
	}
	env.reset()
	p.EmitExternal()
	if p.Stats().ATsRun != 0 {
		t.Fatal("no acceptance tests after commit")
	}
	if len(env.sentOfKind(msg.External)) != 1 {
		t.Fatal("external not sent after commit")
	}
	ms := env.sentOfKind(msg.External)
	if ms[0].DirtyBit {
		t.Fatal("post-commit messages are clean")
	}
}

func TestCommitUpgradeShadowRetires(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	p.CommitUpgrade()
	if !p.Failed() {
		t.Fatal("retired shadow should stop participating")
	}
	if p.MsgLogLen() != 0 {
		t.Fatal("retired shadow's log should be discarded")
	}
	env.reset()
	p.EmitInternal()
	p.Receive(internalFrom(msg.P2, 1, 1, false))
	if len(env.sent) != 0 || p.State.Step != 0 {
		t.Fatal("retired shadow must be inert")
	}
}

func TestCommitUpgradePromotedShadowUnaffected(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.TakeOver()
	p.Retire()
	if p.Failed() {
		t.Fatal("Retire must not touch a promoted shadow")
	}
}

func TestCommitUpgradePeerStopsTesting(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 1, true)) // dirty
	p.CommitUpgrade()
	if p.Dirty() {
		t.Fatal("commit declares all components high-confidence")
	}
	env.reset()
	p.EmitExternal()
	if p.Stats().ATsRun != 0 {
		t.Fatal("no acceptance tests after commit")
	}
}
