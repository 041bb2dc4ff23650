package coord

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

func TestCrashRepairCycle(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 81)
	cfg.MaxRepair = time.Minute
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(60))

	s.CrashNode(3) // P2's node fails for 45 seconds
	downNdc := s.Checkpointer(msg.P2).Ndc()
	sentBefore := s.Process(msg.P2).Stats().InternalSent
	s.RunFor(45)

	// The crashed node computes and checkpoints nothing while down; the
	// survivors keep committing.
	if got := s.Checkpointer(msg.P2).Ndc(); got != downNdc {
		t.Fatalf("down node advanced Ndc %d → %d", downNdc, got)
	}
	if got := s.Process(msg.P2).Stats().InternalSent; got != sentBefore {
		t.Fatalf("down node kept sending: %d → %d", sentBefore, got)
	}
	if got := s.Checkpointer(msg.P1Act).Ndc(); got <= downNdc+2 {
		t.Fatalf("survivors stalled: Ndc %d", got)
	}

	if err := s.RepairNode(3); err != nil {
		t.Fatal(err)
	}
	s.RunFor(60)
	s.Quiesce()
	mustHealthy(t, s)
	if !s.ReplicasConverged() {
		t.Fatal("replicas diverged after a repair-delay recovery")
	}
	// The rollback spans at least the downtime: survivor work during the
	// outage is undone back to the common round the crashed node holds.
	if max := s.Metrics().RollbackDistance.Max(); max < 45 {
		t.Fatalf("rollback distance %v should cover the 45s downtime", max)
	}
	// Checkpointing resumed for everyone.
	line, err := s.StableLine()
	if err != nil {
		t.Fatal(err)
	}
	if vs := line.Check(); len(vs) != 0 {
		t.Fatalf("post-repair violations: %v", vs)
	}
}

func TestRepairRetentionCoversDowntime(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 83)
	cfg.MaxRepair = 2 * time.Minute
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(45))
	s.CrashNode(2)
	s.RunFor(110) // eleven intervals of survivor commits
	if err := s.RepairNode(2); err != nil {
		t.Fatalf("recovery round evicted despite MaxRepair retention: %v", err)
	}
	s.RunFor(30)
	s.Quiesce()
	mustHealthy(t, s)
}

func TestRepairDeliversLostTrafficViaUnackedLogs(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 87)
	cfg.MaxRepair = time.Minute
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(50))
	dropsBefore := s.sim.Counters().DroppedDown
	s.CrashNode(1)
	s.RunFor(30)
	// Traffic addressed to the down node was dropped...
	if got := s.sim.Counters().DroppedDown; got == dropsBefore {
		t.Fatal("no traffic was dropped at the down node — test premise broken")
	}
	if err := s.RepairNode(1); err != nil {
		t.Fatal(err)
	}
	s.RunFor(60)
	s.Quiesce()
	mustHealthy(t, s)
	// ...and the recovery line is whole regardless: dropped messages were
	// never acknowledged, so the rollback's unacked re-sends cover them.
	if !s.ReplicasConverged() {
		t.Fatal("replicas diverged: dropped traffic was not recovered")
	}
}
