package live

import (
	"strings"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
)

func TestRecoveryLineBeforeFirstRound(t *testing.T) {
	mw, err := New(DefaultConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	// Nothing has run: no node has committed a stable round, so there is no
	// line a hardware fault could restore yet.
	if _, err := mw.RecoveryLine(); err == nil {
		t.Fatal("RecoveryLine before the first round succeeded, want error")
	} else if !strings.Contains(err.Error(), "no complete checkpoint round") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRecoveryLineCleanAfterSteadyRun(t *testing.T) {
	mw, err := New(DefaultConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	defer mw.Stop()
	for _, id := range msg.Processes() {
		waitNdc(t, mw, id, 2, 3*time.Second)
	}

	mw.Stop() // freeze the rounds so the line can be compared with them
	line, err := mw.RecoveryLine()
	if err != nil {
		t.Fatalf("RecoveryLine: %v", err)
	}
	if got := len(line.Ckpts); got != len(msg.Processes()) {
		t.Fatalf("line covers %d processes, want %d", got, len(msg.Processes()))
	}
	if got := mw.ActiveC1(); got != msg.P1Act {
		t.Fatalf("ActiveC1 = %v, want %v (no software recovery ran)", got, msg.P1Act)
	}
	// All members sit at one common round — that is what makes it a line:
	// the highest round every node has committed. (A checkpoint's own Ndc is
	// the count its process had seen when the contents were captured — a
	// dirty process commits a copy of an older volatile checkpoint — so it
	// only has to predate the round.)
	round := ^uint64(0)
	for _, id := range msg.Processes() {
		_ = mw.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) { round = min(round, cp.Ndc()) })
	}
	for id, c := range line.Ckpts {
		var want *checkpoint.Checkpoint
		_ = mw.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) { want, err = cp.StableAtRound(round) })
		if err != nil {
			t.Fatalf("%v holds no round %d: %v", id, round, err)
		}
		if c.TakenAt != want.TakenAt || c.Ndc != want.Ndc || c.Ndc >= round {
			t.Errorf("%v: line has the checkpoint taken at %v (Ndc %d), round %d holds the one taken at %v (Ndc %d)",
				id, c.TakenAt, c.Ndc, round, want.TakenAt, want.Ndc)
		}
		if c.Proc != id {
			t.Errorf("checkpoint for %v claims process %v", id, c.Proc)
		}
	}
	if vs := line.Check(); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("recovery-line violation: %v", v)
		}
	}
}

func TestRecoveryLineExcludesDownNode(t *testing.T) {
	cfg := DefaultConfig(29)
	cfg.Net = TCPTransport
	cfg.StableDir = t.TempDir()
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	defer mw.Stop()
	for _, id := range msg.Processes() {
		waitNdc(t, mw, id, 2, 3*time.Second)
	}

	if err := mw.KillNode(msg.P2); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	line, err := mw.RecoveryLine()
	if err != nil {
		t.Fatalf("RecoveryLine with P2 down: %v", err)
	}
	if _, ok := line.Ckpts[msg.P2]; ok {
		t.Fatal("down node P2 appears in the recovery line")
	}
	if got := len(line.Ckpts); got != 2 {
		t.Fatalf("line covers %d processes, want the 2 survivors", got)
	}
	if vs := line.Check(); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("survivor-line violation: %v", v)
		}
	}
}
