package tb

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

func TestStartAtAlignsTicks(t *testing.T) {
	host := &fakeHost{}
	eng, cp := newCP(t, cfgAdapted(), host)
	eng.RunUntil(vtime.FromSeconds(9.9)) // near a tick boundary
	cp.StartAt(vtime.FromSeconds(30))    // the common recovery target
	eng.RunUntil(vtime.FromSeconds(29))
	if cp.Ndc() != 0 {
		t.Fatalf("no commit expected before the target, Ndc=%d", cp.Ndc())
	}
	eng.RunUntil(vtime.FromSeconds(31))
	if cp.Ndc() != 1 {
		t.Fatalf("Ndc = %d, want 1 right after the target tick", cp.Ndc())
	}
}

func TestStableAtRoundMissing(t *testing.T) {
	host := &fakeHost{}
	_, cp := newCP(t, cfgAdapted(), host)
	if _, err := cp.StableAtRound(3); err == nil {
		t.Fatal("missing round should error")
	}
}

func TestPrepareRecoveryAtUnretainedRound(t *testing.T) {
	host := &fakeHost{}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(35)) // rounds 1..3; round 1 evicted
	if _, err := cp.PrepareRecoveryAt(1); err == nil {
		t.Fatal("recovering an evicted round should error")
	}
}

func TestAbortCycleKeepsCommittedCheckpoint(t *testing.T) {
	host := &fakeHost{step: 1}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12)) // round 1 committed
	host.step = 2
	eng.RunUntil(vtime.FromSeconds(20).Add(time.Millisecond)) // round 2 in flight
	if !cp.Stable.InFlight() {
		t.Fatal("setup: write should be in flight")
	}
	cp.AbortCycle()
	if cp.InBlocking() || cp.Stable.InFlight() {
		t.Fatal("AbortCycle should clear the in-flight write and blocking")
	}
	got, err := cp.LatestStable()
	if err != nil || got.State.Step != 1 {
		t.Fatalf("committed round must survive: %+v, %v", got, err)
	}
	// The main timer keeps running: round 2 commits at the next tick.
	eng.RunUntil(vtime.FromSeconds(31))
	if cp.Ndc() != 2 {
		t.Fatalf("Ndc = %d, want 2 after the next tick", cp.Ndc())
	}
}

func TestReconcileUnacked(t *testing.T) {
	host := &fakeHost{}
	_, cp := newCP(t, cfgAdapted(), host)
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 3})
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 4})
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Sdw, ChanSeq: 2})
	// The restored state has only sent 3 messages to P1act and 2 to P1sdw.
	cp.ReconcileUnacked(func(to msg.ProcID) uint64 {
		if to == msg.P1Act {
			return 3
		}
		return 2
	})
	if cp.UnackedLen() != 2 {
		t.Fatalf("UnackedLen = %d, want 2 (ChanSeq 4 pruned)", cp.UnackedLen())
	}
}

func TestAdoptUnacked(t *testing.T) {
	host := &fakeHost{}
	_, cp := newCP(t, cfgAdapted(), host)
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 9})
	stored := []msg.Message{
		{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 1},
		{Kind: msg.Internal, From: msg.P2, To: msg.P1Sdw, ChanSeq: 1},
	}
	cp.AdoptUnacked(stored)
	if cp.UnackedLen() != 2 {
		t.Fatalf("UnackedLen = %d", cp.UnackedLen())
	}
	got := cp.UnackedAt(Mark{})
	if got[0].ChanSeq != 1 || got[1].To != msg.P1Sdw {
		t.Fatalf("adopted set wrong: %+v", got)
	}
	cp.AdoptUnacked(nil)
	if cp.UnackedLen() != 0 {
		t.Fatal("adopting nil should clear the set")
	}
}

func TestNotifyDirtyChangedOutsideBlockingIsNoop(t *testing.T) {
	host := &fakeHost{dirty: true, volatile: checkpoint.New(checkpoint.Type1, msg.P2)}
	_, cp := newCP(t, cfgAdapted(), host)
	cp.NotifyDirtyChanged(false) // no write in flight
	if cp.Stable.Replaces() != 0 {
		t.Fatal("no replacement without an in-flight write")
	}
}

func TestElapsedGrowsBlockingUntilResync(t *testing.T) {
	cfg := cfgAdapted()
	cfg.Clock = vtime.ClockConfig{MaxDeviation: time.Millisecond, DriftRate: 1e-4}
	host := &fakeHost{}
	eng, cp := newCP(t, cfg, host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(15))
	early := cp.Stats().BlockingTotal
	eng.RunUntil(vtime.FromSeconds(95))
	lateAvg := (cp.Stats().BlockingTotal - early) / 8
	if lateAvg <= early {
		t.Fatalf("blocking should grow with elapsed τ: first=%v lateAvg=%v", early, lateAvg)
	}
}
