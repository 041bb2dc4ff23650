package live

import (
	"sync"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// TestTCPConcurrentFrameTraffic hammers the loopback TCP interconnect from
// many goroutines at once — concurrent sends on every directed channel,
// epoch-bumping flushes and stats reads racing the per-pair writer and
// reader loops — so `go test -race` patrols the transport's locking. The
// tcpNet is exercised directly (below the protocol layer) to maximize
// interleavings on the frame path itself.
func TestTCPConcurrentFrameTraffic(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Net = TCPTransport
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, ok := mw.net.(*tcpNet)
	if !ok {
		t.Fatalf("transport is %T, want *tcpNet", mw.net)
	}
	defer mw.Stop()

	const (
		senders      = 8
		perSender    = 200
		flushEvery   = 50
		statsReaders = 2
	)
	var wg sync.WaitGroup
	pairs := []struct{ from, to msg.ProcID }{
		{msg.P1Act, msg.P2},
		{msg.P2, msg.P1Act},
		{msg.P2, msg.P1Sdw},
	}
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair := pairs[s%len(pairs)]
			for i := 0; i < perSender; i++ {
				net.Send(msg.Message{
					Kind: msg.Internal, From: pair.from, To: pair.to,
					SN: uint64(s)<<32 | uint64(i), ChanSeq: uint64(i + 1),
				})
				if i > 0 && i%flushEvery == 0 {
					net.Flush()
				}
			}
		}()
	}
	for r := 0; r < statsReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				net.Stats()
			}
		}()
	}
	wg.Wait()

	// Let in-flight frames drain so readLoops race the shutdown path too.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, delivered := net.Stats(); delivered > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	sent, _ := net.Stats()
	if sent == 0 {
		t.Fatal("no frames sent")
	}
}
