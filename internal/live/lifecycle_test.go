package live

import (
	goruntime "runtime"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// settledGoroutines counts goroutines, giving those that have signalled their
// exit but are still unwinding a moment to go.
func settledGoroutines(want int) int {
	for end := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > want && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	return goruntime.NumGoroutine()
}

// TestMiddlewareLifecycle holds the three-process stack to what
// cluster.TestLiveLifecycle holds the N-node one to, on both transports: Stop
// ends every goroutine New and Start launched (every timer lives on a node
// loop, so none outlives them), works without Start and twice, and a
// kill/restart of each process in between leaves nothing behind either.
func TestMiddlewareLifecycle(t *testing.T) {
	before := goruntime.NumGoroutine()
	for _, net := range []Transport{ChannelTransport, TCPTransport} {
		for i := 0; i < 20; i++ {
			cfg := DefaultConfig(int64(i))
			cfg.Net = net
			mw, err := New(cfg)
			if err != nil {
				t.Fatalf("%v: New: %v", net, err)
			}
			mw.Start()
			for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
				if _, delivered := mw.NetworkStats(); delivered > 0 {
					break
				}
			}
			mw.Stop()
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("%v: goroutines: %d before, %d after twenty New/Start/Stop cycles", net, before, after)
		}

		cfg := DefaultConfig(1)
		cfg.Net = net
		unstarted, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: New: %v", net, err)
		}
		unstarted.Stop()
		unstarted.Stop()
		if after := settledGoroutines(before); after > before {
			t.Fatalf("%v: goroutines: %d before, %d after Stop without Start", net, before, after)
		}

		cfg = DefaultConfig(23)
		cfg.Net = net
		cfg.StableDir = t.TempDir()
		mw, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: New: %v", net, err)
		}
		mw.Start()
		waitNdc(t, mw, msg.P2, 2, 3*time.Second)
		for _, victim := range msg.Processes() {
			if err := mw.KillNode(victim); err != nil {
				t.Fatalf("%v: KillNode(%v): %v", net, victim, err)
			}
			time.Sleep(20 * time.Millisecond)
			if err := mw.RestartNode(victim); err != nil {
				t.Fatalf("%v: RestartNode(%v): %v", net, victim, err)
			}
		}
		mustHealthy(t, mw)
		mw.Stop()
		mw.Stop()
		if after := settledGoroutines(before); after > before {
			t.Fatalf("%v: goroutines: %d before, %d after kill/restart of every process", net, before, after)
		}
		if sent, _ := mw.NetworkStats(); sent == 0 {
			t.Fatalf("%v: post-stop NetworkStats unreadable", net)
		}
		if _, err := mw.RecoveryLine(); err != nil {
			t.Logf("%v: post-stop RecoveryLine: %v", net, err) // answering is the point
		}
	}
}
