package live

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
)

func TestCommitUpgradeRealTime(t *testing.T) {
	mw, err := New(DefaultConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	time.Sleep(250 * time.Millisecond)
	if !mw.CommitUpgrade() {
		t.Fatal("CommitUpgrade returned false")
	}
	if mw.CommitUpgrade() {
		t.Fatal("second CommitUpgrade should be a no-op")
	}
	var suppressedAt uint64
	_ = mw.Inspect(msg.P1Sdw, func(p *mdcd.Process, _ *tb.Checkpointer) {
		suppressedAt = p.Stats().Suppressed
	})
	time.Sleep(300 * time.Millisecond)
	// The system keeps checkpointing post-commit; the retired shadow
	// suppresses nothing further; a crash still recovers.
	var after uint64
	_ = mw.Inspect(msg.P1Sdw, func(p *mdcd.Process, _ *tb.Checkpointer) {
		after = p.Stats().Suppressed
	})
	if after != suppressedAt {
		t.Fatalf("retired shadow kept suppressing: %d → %d", suppressedAt, after)
	}
	if err := mw.InjectHardwareFault(msg.P2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	mw.Stop()
	mustHealthy(t, mw)
	if mw.Metrics().HWFaults != 1 {
		t.Fatalf("HWFaults = %d", mw.Metrics().HWFaults)
	}
}

func TestInspectUnknownProcess(t *testing.T) {
	mw, err := New(DefaultConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Inspect(msg.Device, func(*mdcd.Process, *tb.Checkpointer) {}); err == nil {
		t.Fatal("unknown process should error")
	}
	mw.Stop()
}

func TestDoubleHardwareFaultRealTime(t *testing.T) {
	mw, err := New(DefaultConfig(35))
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	time.Sleep(350 * time.Millisecond)
	for _, victim := range []msg.ProcID{msg.P1Act, msg.P2} {
		if err := mw.InjectHardwareFault(victim); err != nil {
			t.Fatalf("%v: %v", victim, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	mw.Stop()
	mustHealthy(t, mw)
	m := mw.Metrics()
	if got := m.RollbackDistance.N(); got != 6 {
		t.Fatalf("rollback samples = %d, want 6", got)
	}
}
