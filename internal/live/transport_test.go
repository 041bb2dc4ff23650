package live

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
)

// TestChannelTransportKeepsBurstOrder sends a burst down one directed channel
// of the in-process transport — what a recovery's re-send of a saved
// unacknowledged set is — and checks the receiver applied every message: it
// accepts a ChanSeq gap, so a message overtaken in flight would be counted a
// duplicate and discarded.
func TestChannelTransportKeepsBurstOrder(t *testing.T) {
	mw, err := New(DefaultConfig(47))
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	const burst = 400
	for seq := uint64(1); seq <= burst; seq++ {
		mw.net.Send(msg.Message{Kind: msg.Internal, From: msg.P1Act, To: msg.P2, SN: seq, ChanSeq: seq})
	}
	var recv, dups uint64
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end) && recv < burst; time.Sleep(2 * time.Millisecond) {
		_ = mw.Inspect(msg.P2, func(p *mdcd.Process, _ *tb.Checkpointer) {
			recv, dups = p.RecvFrom(msg.P1Act), p.Stats().Duplicates
		})
	}
	if recv != burst || dups != 0 {
		t.Fatalf("P2 reached stream position %d of %d having discarded %d overtaken messages as duplicates", recv, burst, dups)
	}
}
