package cluster

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
)

func TestLiveTenNodeChaosSoak(t *testing.T) {
	cfg := ringConfig(7, 3, 77, 200, 100) // 10 nodes
	cfg.CheckpointInterval = 40 * time.Millisecond
	cfg.Chaos = chaos.Spec{
		Seed:          3,
		Drop:          0.02,
		Duplicate:     0.02,
		MaxExtraDelay: time.Millisecond,
		Partitions: []chaos.Partition{{
			A: 10, B: 12, Bidirectional: true,
			Start: 200 * time.Millisecond, End: 400 * time.Millisecond,
		}},
	}
	lv, err := NewLive(cfg)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	if got := lv.Nodes(); got != 10 {
		t.Fatalf("Nodes = %d, want 10", got)
	}
	lv.Start()
	lv.RunFor(900 * time.Millisecond)

	// Mid-run sample: the line must already be clean while traffic flows.
	round, violations, _, err := lv.SampleInvariants()
	if err != nil {
		t.Fatalf("mid-run SampleInvariants: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("round %d: mid-run violations: %v", round, violations)
	}

	lv.Settle()
	checkRun(t, lv.Cluster, 1, false)

	lv.Stop()
	lv.Stop() // idempotent
	// Post-stop reads stay usable.
	if got := lv.Stats(); got.MsgsSent == 0 {
		t.Fatal("post-stop stats unreadable")
	}
}
