package coord

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// The paper's seamless disengagement: after the upgrade is accepted, "the
// MDCD protocol will go on leave, and each process's dirty bit will have a
// constant value of zero. This, in turn, leads the adapted TB algorithm to
// become equivalent to its original version."

func TestCommitUpgradeDisengagesGuardedOperation(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 61)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(60))
	if !s.CommitUpgrade() {
		t.Fatal("CommitUpgrade returned false during guarded operation")
	}
	if s.CommitUpgrade() {
		t.Fatal("second CommitUpgrade should be a no-op")
	}
	if !s.UpgradeCommitted() {
		t.Fatal("UpgradeCommitted should report true")
	}

	suppressedBefore := s.Process(msg.P1Sdw).Stats().Suppressed
	atsBefore := s.Process(msg.P1Act).Stats().ATsRun + s.Process(msg.P2).Stats().ATsRun
	replacesBefore := s.Checkpointer(msg.P1Act).Stable.Replaces() +
		s.Checkpointer(msg.P2).Stable.Replaces()

	s.RunUntil(vtime.FromSeconds(300))
	mustHealthy(t, s)

	// The shadow retired: nothing more suppressed.
	if got := s.Process(msg.P1Sdw).Stats().Suppressed; got != suppressedBefore {
		t.Fatalf("shadow kept suppressing after commit: %d → %d", suppressedBefore, got)
	}
	// Dirty bits are constant zero: no more acceptance tests run, and the
	// adapted TB never adjusts in-flight writes (original behaviour).
	if got := s.Process(msg.P1Act).Stats().ATsRun + s.Process(msg.P2).Stats().ATsRun; got != atsBefore {
		t.Fatalf("ATs still running after commit: %d → %d", atsBefore, got)
	}
	if s.Process(msg.P1Act).EffectiveDirty() || s.Process(msg.P2).Dirty() {
		t.Fatal("dirty bits must be constant zero after commit")
	}
	if got := s.Checkpointer(msg.P1Act).Stable.Replaces() +
		s.Checkpointer(msg.P2).Stable.Replaces(); got != replacesBefore {
		t.Fatal("adapted TB should behave like the original (no content adjustments)")
	}
	// Stable checkpointing continues for the live processes.
	if s.Checkpointer(msg.P2).Ndc() < 25 {
		t.Fatalf("Ndc = %d after 300s", s.Checkpointer(msg.P2).Ndc())
	}
}

func TestCommitUpgradeHardwareRecoveryStillWorks(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 67)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(45))
	s.CommitUpgrade()
	s.RunUntil(vtime.FromSeconds(90))
	for _, node := range []msg.NodeID{1, 3} {
		if err := s.InjectHardwareFault(node); err != nil {
			t.Fatalf("node %v: %v", node, err)
		}
		s.RunFor(30)
	}
	mustHealthy(t, s)
	line, err := s.StableLine()
	if err != nil {
		t.Fatal(err)
	}
	if vs := line.Check(); len(vs) != 0 {
		t.Fatalf("violations after post-commit recovery: %v", vs)
	}
	// Everyone clean at fault time ⇒ rollback bounded by the interval
	// plus blocking slack, with no contamination-epoch term.
	if max := s.Metrics().RollbackDistance.Max(); max > 11 {
		t.Fatalf("post-commit rollback distance %v exceeds Δ bound", max)
	}
}

func TestCommitUpgradeAfterTakeoverIsNoop(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 71)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(40))
	s.ActivateSoftwareFault()
	s.RunUntil(vtime.FromSeconds(400))
	if !s.Process(msg.P1Sdw).Promoted() {
		t.Fatal("AT did not fire in the window for this seed")
	}
	if s.CommitUpgrade() {
		t.Fatal("CommitUpgrade after a takeover should be a no-op")
	}
}

func TestCommitUpgradeNonGuardedSchemes(t *testing.T) {
	s := newSystem(t, DefaultConfig(TBOnly, 73))
	s.Start()
	s.RunUntil(vtime.FromSeconds(20))
	if s.CommitUpgrade() {
		t.Fatal("TB-only scheme has no guarded operation to commit")
	}
}
