package live

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
)

// waitNdc polls until the node has committed at least want stable rounds.
func waitNdc(t *testing.T, mw *Middleware, id msg.ProcID, want uint64, within time.Duration) uint64 {
	t.Helper()
	deadline := time.Now().Add(within)
	var ndc uint64
	for time.Now().Before(deadline) {
		_ = mw.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) { ndc = cp.Ndc() })
		if ndc >= want {
			return ndc
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%v committed only %d stable rounds, want >= %d", id, ndc, want)
	return 0
}

// mustCleanLine asserts the current recovery line satisfies every protocol
// invariant — the state a hardware fault right now would restore is
// consistent, orphan-free and covered by unacknowledged logs.
func mustCleanLine(t *testing.T, mw *Middleware) {
	t.Helper()
	line, err := mw.RecoveryLine()
	if err != nil {
		t.Fatalf("recovery line: %v", err)
	}
	if vs := line.Check(); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("recovery-line violation: %v", v)
		}
		t.FailNow()
	}
}

// TestTCPWriteErrorResend is the regression test for the transport's
// sever-and-retry path: a frame that hits a write error on a severed
// connection must be retried whole over a fresh dial, not lost. Down
// closes the writer-side socket directly, so the next write fails
// deterministically; Up brings the destination back on a brand-new
// address that only a re-dial can discover.
func TestTCPWriteErrorResend(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Net = TCPTransport
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	net, ok := mw.net.(*tcpNet)
	if !ok {
		t.Fatalf("transport is %T, want *tcpNet", mw.net)
	}

	send := func(i int) {
		net.Send(msg.Message{
			Kind: msg.Internal, From: msg.P2, To: msg.P1Act,
			SN: uint64(i), ChanSeq: uint64(i + 1),
		})
	}
	waitDelivered := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if _, delivered := net.Stats(); delivered >= want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		_, delivered := net.Stats()
		t.Fatalf("delivered %d frames, want >= %d", delivered, want)
	}

	send(0)
	waitDelivered(1)

	// Sever: destination listener gone, established connections closed.
	net.Down(msg.P1Act)
	if err := net.Up(msg.P1Act); err != nil {
		t.Fatal(err)
	}

	// The writer's cached connection is dead; this frame's first write
	// errors and must be re-sent over a fresh dial to the new listener.
	send(1)
	waitDelivered(2)
}

// TestKillRestartFromDurableStorage crashes P2's host mid-run, then reboots
// it from its fsynced on-disk checkpoints and verifies the system converges:
// the rejoiner resumes from a durable round, a system-wide recovery rolls
// everyone to a common line, checkpointing resumes past the pre-kill round,
// and the resulting recovery line is violation-free.
func TestKillRestartFromDurableStorage(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.Net = TCPTransport
	cfg.StableDir = t.TempDir()
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	defer mw.Stop()

	preKill := waitNdc(t, mw, msg.P2, 2, 3*time.Second)

	if err := mw.KillNode(msg.P2); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if !mw.NodeDown(msg.P2) {
		t.Fatal("P2 not marked down after KillNode")
	}
	if err := mw.KillNode(msg.P2); err == nil {
		t.Fatal("second KillNode succeeded, want error")
	}

	// Survivors keep checkpointing while P2 is down.
	time.Sleep(150 * time.Millisecond)

	if err := mw.RestartNode(msg.P2); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if mw.NodeDown(msg.P2) {
		t.Fatal("P2 still marked down after RestartNode")
	}

	// The reboot restored a committed round from disk, not a cold start.
	var resumed uint64
	_ = mw.Inspect(msg.P2, func(_ *mdcd.Process, cp *tb.Checkpointer) { resumed = cp.Ndc() })
	if resumed == 0 {
		t.Fatal("restarted P2 has no stable rounds; durable reload failed")
	}

	// And the system keeps making progress past the pre-kill round.
	waitNdc(t, mw, msg.P2, preKill+2, 3*time.Second)
	mustCleanLine(t, mw)
	mustHealthy(t, mw)

	rec := mw.Trace()
	if got := rec.Count(msg.P2, trace.NodeCrashed); got != 1 {
		t.Fatalf("NodeCrashed events for P2 = %d, want 1", got)
	}
	if got := rec.Count(msg.P2, trace.NodeRestarted); got != 1 {
		t.Fatalf("NodeRestarted events for P2 = %d, want 1", got)
	}
}

// TestPartitionHealResend partitions P1act<->P2 across multiple checkpoint
// rounds, lets the window heal, then forces a hardware recovery so saved
// unacknowledged messages re-send over the healed link — and checks the
// system converges to a clean recovery line with liveness intact.
func TestPartitionHealResend(t *testing.T) {
	cfg := DefaultConfig(21)
	cfg.Net = TCPTransport
	cfg.Chaos = chaos.Spec{
		Seed: 21,
		Partitions: []chaos.Partition{{
			A: msg.P1Act, B: msg.P2, Bidirectional: true,
			Start: 250 * time.Millisecond, End: 500 * time.Millisecond,
		}},
	}
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	defer mw.Stop()

	// Run through the partition window and past its heal.
	time.Sleep(650 * time.Millisecond)
	if got := mw.ChaosStats().Partitioned; got == 0 {
		t.Fatal("no frames were partitioned")
	}

	var pre uint64
	_ = mw.Inspect(msg.P2, func(_ *mdcd.Process, cp *tb.Checkpointer) { pre = cp.Ndc() })

	// A hardware fault flushes in-flight traffic and re-sends every saved
	// unacknowledged message — over the now-healed link.
	if err := mw.InjectHardwareFault(msg.P1Sdw); err != nil {
		t.Fatalf("InjectHardwareFault: %v", err)
	}

	waitNdc(t, mw, msg.P2, pre+2, 3*time.Second)
	mustCleanLine(t, mw)
	mustHealthy(t, mw)
}

// TestChaosSoak runs the full gauntlet under one deterministic seed: lossy,
// duplicating, corrupting, jittery links, a mid-run partition and a scheduled
// P2 crash-restart from durable storage — all at once, under the checkpoint
// protocol's normal traffic. The run must stay healthy, every chaos fault
// kind must actually fire, corrupted frames must be caught by the receiver's
// CRC, the crashed node must reboot exactly once, and the final recovery line
// must be violation-free.
func TestChaosSoak(t *testing.T) {
	cfg := DefaultConfig(99)
	cfg.Net = TCPTransport
	cfg.StableDir = t.TempDir()
	cfg.Chaos = chaos.Spec{
		Seed:          99,
		Drop:          0.05,
		Duplicate:     0.05,
		Corrupt:       0.05,
		MaxExtraDelay: time.Millisecond,
		Partitions: []chaos.Partition{{
			A: msg.P1Act, B: msg.P2, Bidirectional: true,
			Start: 400 * time.Millisecond, End: 550 * time.Millisecond,
		}},
		Crashes: []chaos.Crash{{
			Victim: msg.P2, At: 700 * time.Millisecond, Downtime: 250 * time.Millisecond,
		}},
	}
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mw.Run(1500 * time.Millisecond)
	mustHealthy(t, mw)

	st := mw.ChaosStats()
	if st.Frames == 0 {
		t.Fatal("chaos injector saw no frames")
	}
	if st.Dropped == 0 || st.Duplicated == 0 || st.Corrupted == 0 || st.Partitioned == 0 || st.Delayed == 0 {
		t.Fatalf("not every fault kind fired: %+v", st)
	}
	if mw.CRCDrops() == 0 {
		t.Fatal("no corrupted frame was caught by the receiver CRC check")
	}

	rec := mw.Trace()
	if got := rec.Count(msg.P2, trace.NodeCrashed); got != 1 {
		t.Fatalf("NodeCrashed events for P2 = %d, want 1", got)
	}
	if got := rec.Count(msg.P2, trace.NodeRestarted); got != 1 {
		t.Fatalf("NodeRestarted events for P2 = %d, want 1", got)
	}

	// Liveness through the chaos: checkpoint rounds kept committing.
	for _, id := range msg.Processes() {
		var ndc uint64
		_ = mw.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) { ndc = cp.Ndc() })
		if ndc < 4 {
			t.Fatalf("%v committed only %d stable rounds through the soak", id, ndc)
		}
	}
	mustCleanLine(t, mw)
}
