package mdcd

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// Figure 10 conformance: P2's modified error-containment algorithm.

func TestPeerBroadcastsInternalToBothComponent1Processes(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitInternal()
	ms := env.sentOfKind(msg.Internal)
	if len(ms) != 2 {
		t.Fatalf("sent %d copies, want 2", len(ms))
	}
	dests := map[msg.ProcID]bool{}
	for _, m := range ms {
		dests[m.To] = true
		if m.SN != 1 {
			t.Fatalf("both copies share one logical SN, got %d", m.SN)
		}
		if m.DirtyBit {
			t.Fatal("clean P2 must piggyback dirty_bit=0")
		}
	}
	if !dests[msg.P1Act] || !dests[msg.P1Sdw] {
		t.Fatalf("destinations = %v", dests)
	}
}

func TestPeerType1BeforeApplyingDirtyMessage(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.State.LocalStep(5)
	p.Receive(internalFrom(msg.P1Act, 1, 1, true))
	if !p.Dirty() {
		t.Fatal("P2 must become dirty on P1act's message")
	}
	c, ok := p.Volatile.Latest()
	if !ok || c.Kind != checkpoint.Type1 || c.State.Step != 1 {
		t.Fatalf("Type-1 checkpoint = %+v, %v", c, ok)
	}
	// Dirty messages while already dirty: no further checkpoints.
	p.Receive(internalFrom(msg.P1Act, 2, 2, true))
	if p.Volatile.Saves() != 1 {
		t.Fatalf("saves = %d", p.Volatile.Saves())
	}
}

func TestPeerTracksLastSNOfActive(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 4, true))
	p.Receive(internalFrom(msg.P1Act, 2, 6, true))
	if got := p.lastSN[msg.P1Act]; got != 6 {
		t.Fatalf("msg_SN_Pact1 = %d, want 6", got)
	}
}

func TestPeerDirtyExternalRunsATAndBroadcasts(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 9
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 5, true)) // dirty, msg_SN_Pact1 = 5
	env.reset()

	p.EmitExternal()
	if p.Dirty() {
		t.Fatal("AT pass must clear P2's dirty bit")
	}
	if got := p.Stats().ATsRun; got != 1 {
		t.Fatalf("ATsRun = %d", got)
	}
	nots := env.sentOfKind(msg.PassedAT)
	if len(nots) != 2 {
		t.Fatalf("notifications = %d, want 2 (P1act, P1sdw)", len(nots))
	}
	for _, n := range nots {
		if n.ValidSN != 5 {
			t.Fatalf("P2's notification must carry msg_SN_Pact1=5, got %d", n.ValidSN)
		}
		if n.Ndc != 9 {
			t.Fatalf("Ndc = %d", n.Ndc)
		}
		if n.To != msg.P1Act && n.To != msg.P1Sdw {
			t.Fatalf("unexpected destination %v", n.To)
		}
	}
}

func TestPeerCleanExternalSkipsAT(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.EmitExternal()
	if got := p.Stats().ATsRun; got != 0 {
		t.Fatalf("clean P2 ran %d ATs, want 0", got)
	}
	if len(env.sentOfKind(msg.External)) != 1 {
		t.Fatal("external message not sent")
	}
	if len(env.sentOfKind(msg.PassedAT)) != 0 {
		t.Fatal("clean send must not broadcast passed_AT")
	}
}

func TestPeerDirtyATFailureTriggersRecovery(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Const(false)), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 1, true))
	env.reset()
	p.EmitExternal()
	if len(env.recoveries) != 1 || env.recoveries[0] != msg.P2 {
		t.Fatalf("recoveries = %v", env.recoveries)
	}
	if len(env.sentOfKind(msg.External)) != 0 {
		t.Fatal("failed AT must suppress the external message")
	}
}

func TestPeerPassedATUpdatesSNRecordAndClearsDirty(t *testing.T) {
	env := newFakeEnv()
	env.ndc = 1
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 3, true))
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, ValidSN: 4, Ndc: 1})
	if p.Dirty() {
		t.Fatal("matching passed_AT must clear the dirty bit")
	}
	if got := p.ValidSN(msg.P1Act); got != 4 {
		t.Fatalf("validity view = %d, want 4", got)
	}
}

func TestPeerDirtyBitPiggybackedWhenDirty(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 1, true))
	env.reset()
	p.EmitInternal()
	for _, m := range env.sentOfKind(msg.Internal) {
		if !m.DirtyBit {
			t.Fatal("dirty P2 must piggyback dirty_bit=1")
		}
	}
}

func TestPeerStopSendingToDemotedActive(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.StopSendingTo(msg.P1Act)
	p.EmitInternal()
	ms := env.sentOfKind(msg.Internal)
	if len(ms) != 1 || ms[0].To != msg.P1Sdw {
		t.Fatalf("sends after demotion = %+v", ms)
	}
}

func TestPeerRecoverSoftwareRollsBackWhenDirty(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.State.LocalStep(1)
	p.Receive(internalFrom(msg.P1Act, 1, 1, true)) // Type-1 at step 1
	p.State.LocalStep(2)                           // contaminated progress

	rolled, _, err := p.RecoverSoftware()
	if err != nil || !rolled {
		t.Fatalf("RecoverSoftware = %v, %v", rolled, err)
	}
	if p.State.Step != 1 {
		t.Fatalf("restored step = %d, want 1", p.State.Step)
	}
	if p.Dirty() {
		t.Fatal("restored state must be clean")
	}
}

func TestPeerRecoverSoftwareRollsForwardWhenClean(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.State.LocalStep(1)
	rolled, _, err := p.RecoverSoftware()
	if err != nil || rolled {
		t.Fatalf("RecoverSoftware = %v, %v (want roll-forward)", rolled, err)
	}
	if p.State.Step != 1 {
		t.Fatal("roll-forward must keep the current state")
	}
}

func TestRecoverSoftwareDirtyWithoutCheckpointFails(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.dirty = true // corrupted bookkeeping, cannot arise through the API
	if _, _, err := p.RecoverSoftware(); err == nil {
		t.Fatal("dirty process without a checkpoint must error")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	env := newFakeEnv()
	p := NewProcess(msg.P2, RolePeer, modifiedCfg(at.Perfect()), env, env.rec.Record)
	p.Receive(internalFrom(msg.P1Act, 1, 1, true))
	p.EmitInternal()
	snap := p.Snapshot(checkpoint.Stable)

	p.Receive(internalFrom(msg.P1Act, 2, 2, true))
	p.EmitInternal()
	p.RestoreFrom(snap)

	if p.State.Step != snap.State.Step {
		t.Fatalf("state step = %d, want %d", p.State.Step, snap.State.Step)
	}
	if p.RecvFrom(msg.P1Act) != 1 || p.SentTo(msg.P1Act) != 1 {
		t.Fatalf("counters = recv %d sent %d", p.RecvFrom(msg.P1Act), p.SentTo(msg.P1Act))
	}
	if !p.Dirty() {
		t.Fatal("restored dirty bit should be 1 (snapshot taken dirty)")
	}
	// Re-delivery of message 2 after restore must be accepted (not a dup).
	p.Receive(internalFrom(msg.P1Act, 2, 2, true))
	if p.RecvFrom(msg.P1Act) != 2 {
		t.Fatal("post-restore redelivery rejected")
	}
}
