package live

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// waitLinks polls until the transport holds exactly `want` fully-established
// pair links (both socket ends registered) and returns them.
func waitLinks(t *testing.T, tn *tcpNet, want int) map[pair]*pairLink {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tn.mu.Lock()
		complete := 0
		out := make(map[pair]*pairLink, len(tn.links))
		for p, l := range tn.links {
			if l.client != nil && l.server != nil {
				complete++
				out[p] = &pairLink{client: l.client, server: l.server}
			}
		}
		total := len(tn.links)
		tn.mu.Unlock()
		if complete == want && total == want {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("want %d established links, have %d complete of %d total", want, complete, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sendAndWait pushes k frames on one directed channel and blocks until the
// transport's delivered counter has grown by at least k.
func sendAndWait(t *testing.T, tn *tcpNet, from, to msg.ProcID, k int) {
	t.Helper()
	_, before := tn.Stats()
	for i := 0; i < k; i++ {
		tn.Send(msg.Message{
			Kind: msg.Internal, From: from, To: to,
			SN: uint64(i), ChanSeq: uint64(i + 1),
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, d := tn.Stats(); d >= before+uint64(k) {
			return
		}
		if time.Now().After(deadline) {
			_, d := tn.Stats()
			t.Fatalf("%v→%v: %d of %d frames delivered", from, to, d-before, k)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPOneConnPerUndirectedPair asserts the interconnect multiplexes both
// directed channels of a node pair onto ONE shared connection: three
// processes hold three links, not six, and traffic flows both ways on each.
func TestTCPOneConnPerUndirectedPair(t *testing.T) {
	cfg := DefaultConfig(31)
	cfg.Net = TCPTransport
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	tn := mw.net.(*tcpNet)

	waitLinks(t, tn, 3)
	sendAndWait(t, tn, msg.P1Act, msg.P2, 10)
	sendAndWait(t, tn, msg.P2, msg.P1Act, 10)
	sendAndWait(t, tn, msg.P2, msg.P1Sdw, 10)
	sendAndWait(t, tn, msg.P1Sdw, msg.P2, 10)

	// Traffic on every directed channel grew no new connections.
	waitLinks(t, tn, 3)
}

// TestTCPBothDirectionsSurviveReconnect severs the P1act↔P2 pair's shared
// connection out from under both writers and asserts the link re-establishes
// once — and that BOTH directions deliver over the replacement. This is the
// §13 regression: with one socket per undirected pair, a reconnect must heal
// the A→B and the B→A channel together.
func TestTCPBothDirectionsSurviveReconnect(t *testing.T) {
	cfg := DefaultConfig(37)
	cfg.Net = TCPTransport
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	tn := mw.net.(*tcpNet)

	p := upair(msg.P1Act, msg.P2)
	before := waitLinks(t, tn, 3)[p]
	if before == nil {
		t.Fatal("no established link for P1act↔P2")
	}
	sendAndWait(t, tn, msg.P1Act, msg.P2, 10)
	sendAndWait(t, tn, msg.P2, msg.P1Act, 10)

	// Kill the shared socket mid-life, as a transient network fault would.
	before.client.Close()
	before.server.Close()

	// The maintainer redials: a fresh connection replaces the dead one, and
	// the pair count stays at one.
	var after *pairLink
	deadline := time.Now().Add(5 * time.Second)
	for {
		links := waitLinks(t, tn, 3)
		after = links[p]
		if after != nil && after.client != before.client {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never re-established after sever")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Both directions must flow over the replacement connection.
	sendAndWait(t, tn, msg.P1Act, msg.P2, 10)
	sendAndWait(t, tn, msg.P2, msg.P1Act, 10)

	tn.mu.Lock()
	n := len(tn.links)
	tn.mu.Unlock()
	if n != 3 {
		t.Fatalf("after reconnect: %d links, want 3", n)
	}
}
