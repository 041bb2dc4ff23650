package live

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
)

// shadowWire counts the application frames P1sdw puts on the interconnect.
type shadowWire struct {
	transport
	frames atomic.Int64
}

func (w *shadowWire) Send(m msg.Message) {
	if m.From == msg.P1Sdw && (m.Kind == msg.Internal || m.Kind == msg.External) {
		w.frames.Add(1)
	}
	w.transport.Send(m)
}

// TestHardwareFaultRightAfterTakeover drives the sequence DESIGN §8
// completion 7 exists for: a software fault, the shadow's takeover, and a
// hardware fault before the next complete stable round — so the rollback
// lands on a line committed while P1act still owned the component-1 stream.
// The stream positions between P2's restored receive counter and the
// shadow's restored send counter were transmitted by the now-demoted P1act;
// only the shadow's suppressed log can re-send them. Before that, a hardware
// recovery with the shadow still un-promoted must not put any of those
// suppressed copies on the wire.
//
// The workload sends no external messages, so no acceptance test ever
// validates (and lets the shadow reclaim) a log entry: the gap is everything
// P1act ever sent, and the one external message that detects the fault is
// driven by hand.
func TestHardwareFaultRightAfterTakeover(t *testing.T) {
	cfg := DefaultConfig(41)
	cfg.CheckpointInterval = 300 * time.Millisecond // a wide window between rounds
	cfg.Workload1.ExternalRate, cfg.Workload2.ExternalRate = 0, 0
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := &shadowWire{transport: mw.net}
	mw.net = wire
	mw.Start()
	defer mw.Stop()
	for _, id := range msg.Processes() {
		waitNdc(t, mw, id, 2, 5*time.Second)
	}

	// Hardware recovery with the shadow un-promoted: its restored
	// unacknowledged set is insurance, not traffic.
	if err := mw.InjectHardwareFault(msg.P1Act); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cfg.CheckpointInterval)
	if n := wire.frames.Load(); n != 0 {
		t.Fatalf("un-promoted shadow put %d application frames on the wire after a hardware recovery", n)
	}

	// Takeover, then a hardware fault well inside the same interval.
	waitNdc(t, mw, msg.P2, 4, 5*time.Second)
	mw.ActivateSoftwareFault()
	mw.sys.EmitC1External()
	deadline := time.Now().Add(5 * time.Second)
	for mw.ActiveC1() != msg.P1Sdw {
		if time.Now().After(deadline) {
			t.Fatal("shadow did not take over within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := mw.InjectHardwareFault(msg.P2); err != nil {
		t.Fatal(err)
	}
	// The line just restored, before new traffic can mask a gap.
	line, err := mw.RecoveryLine()
	if err != nil {
		t.Fatalf("recovery line after the fault: %v", err)
	}
	for _, v := range line.Check() {
		t.Errorf("restored line: %v", v)
	}
	// Every stream position the restored shadow has produced and the
	// restored P2 has not seen must reach P2.
	recv, sent := line.Ckpts[msg.P2].RecvFrom[msg.P1Act], line.Ckpts[msg.P1Sdw].SentTo[msg.P2]
	if sent <= recv {
		t.Fatalf("no stream gap on the restored line (P2 at %d, shadow at %d): nothing was exercised", recv, sent)
	}
	ok := false
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end) && !ok; time.Sleep(5 * time.Millisecond) {
		_ = mw.Inspect(msg.P2, func(p *mdcd.Process, _ *tb.Checkpointer) { ok = p.RecvFrom(msg.P1Sdw) >= sent })
	}
	if !ok {
		t.Errorf("P2's receive counter never reached the promoted shadow's restored send counter %d", sent)
	}
	delivered := make(map[uint64]bool)
	for _, e := range mw.Trace().Events() {
		if e.Kind == trace.MsgDelivered && e.Proc == msg.P2 && e.Msg.From == msg.P1Sdw && e.Msg.Kind == msg.Internal {
			delivered[e.Msg.ChanSeq] = true
		}
	}
	for seq := recv + 1; seq <= sent; seq++ {
		if !delivered[seq] {
			t.Errorf("component-1 stream position #%d was never delivered to P2 by the promoted shadow", seq)
		}
	}

	waitNdc(t, mw, msg.P2, line.Ckpts[msg.P2].Ndc+2, 5*time.Second)
	mustCleanLine(t, mw)
	mustHealthy(t, mw)
}
