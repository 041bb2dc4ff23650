package live

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
)

// word is one field of the transport's hot state, by its byte range in the
// struct that holds it. owner names the goroutine (or group) that writes it;
// two words with the same owner may share a line.
type word struct {
	name, owner string
	off, size   uintptr
}

// lineApart reports whether at least a cache line of bytes separates a and
// b, so no alignment of their struct can put them on one line.
func lineApart(a, b word) bool {
	if a.off > b.off {
		a, b = b, a
	}
	return b.off >= a.off+a.size+cacheLine
}

// checkLines fails for every pair of words with different owners that fall
// within a line of each other.
func checkLines(t *testing.T, ws []word) {
	t.Helper()
	for i, a := range ws {
		for _, b := range ws[i+1:] {
			if a.owner != b.owner && !lineApart(a, b) {
				t.Errorf("%s (bytes %d–%d, written by %s) and %s (bytes %d–%d, written by %s) are less than %d bytes apart",
					a.name, a.off, a.off+a.size, a.owner, b.name, b.off, b.off+b.size, b.owner, cacheLine)
			}
		}
	}
}

// TestTransportHotStateOwnsItsCacheLines holds the transport's layout rule:
// every counter written per message or per batch is at least a cache line
// from epoch and closed (read per frame by every writer and reader
// goroutine) and from every other channel's counters, and the middleware's
// probe sequence and routing counts keep clear of the fields the delivery
// path reads per message.
func TestTransportHotStateOwnsItsCacheLines(t *testing.T) {
	var n tcpNet
	ws := []word{
		{"tcpNet.epoch", "flush", unsafe.Offsetof(n.epoch), unsafe.Sizeof(n.epoch)},
		{"tcpNet.closed", "flush", unsafe.Offsetof(n.closed), unsafe.Sizeof(n.closed)},
		{"tcpNet.mu", "transmit, per batch", unsafe.Offsetof(n.mu), unsafe.Sizeof(n.mu)},
		{"tcpNet.deviceSent", "device senders", unsafe.Offsetof(n.deviceSent) + unsafe.Offsetof(n.deviceSent.Uint64), 8},
	}
	recv := unsafe.Sizeof(n.recv[0][0])
	for from := range n.recv {
		for to := range n.recv[from] {
			base := unsafe.Offsetof(n.recv) + uintptr(from*len(n.recv[from])+to)*recv
			owner := fmt.Sprintf("reader %d→%d", from, to)
			ws = append(ws,
				word{fmt.Sprintf("tcpNet.recv[%d][%d].delivered", from, to), owner, base + unsafe.Offsetof(n.recv[0][0].delivered), 8},
				word{fmt.Sprintf("tcpNet.recv[%d][%d].crcDrops", from, to), owner, base + unsafe.Offsetof(n.recv[0][0].crcDrops), 8})
		}
	}
	checkLines(t, ws)

	// A writerState fills whole lines, so its size class starts each one on
	// a line boundary and two channels' queue locks and send counts never
	// share a line.
	if size := unsafe.Sizeof(writerState{}); size%cacheLine != 0 {
		t.Errorf("writerState is %d bytes, not a whole number of %d-byte lines", size, cacheLine)
	}

	// The middleware: the delivery path reads cfg, net, sys, obsm and rt per
	// message; the load driver writes probeSN per probe and each channel's
	// reader writes its routed slot.
	var mw Middleware
	mws := []word{
		{"Middleware.cfg..rt", "read per message", 0, unsafe.Offsetof(mw.rt) + unsafe.Sizeof(mw.rt)},
		{"Middleware.probeMu..probeSN", "probe senders", unsafe.Offsetof(mw.probeMu), unsafe.Offsetof(mw.probeSN) + 8 - unsafe.Offsetof(mw.probeMu)},
	}
	routed := unsafe.Sizeof(mw.routed[0][0])
	for from := range mw.routed {
		for to := range mw.routed[from] {
			base := unsafe.Offsetof(mw.routed) + uintptr(from*len(mw.routed[from])+to)*routed
			owner := fmt.Sprintf("router %d→%d", from, to)
			mws = append(mws,
				word{fmt.Sprintf("Middleware.routed[%d][%d].probes", from, to), owner, base + unsafe.Offsetof(mw.routed[0][0].probes), 8},
				word{fmt.Sprintf("Middleware.routed[%d][%d].acks", from, to), owner, base + unsafe.Offsetof(mw.routed[0][0].acks), 8})
		}
	}
	// The last slot must keep clear of whatever the allocator puts after
	// the struct.
	mws = append(mws, word{"next object", "someone else", unsafe.Sizeof(mw), 8})
	checkLines(t, mws)
}

// sixPairs are the directed channels between the three processes.
var sixPairs = [][2]msg.ProcID{
	{msg.P1Act, msg.P2}, {msg.P2, msg.P1Act},
	{msg.P1Sdw, msg.P2}, {msg.P2, msg.P1Sdw},
	{msg.P1Act, msg.P1Sdw}, {msg.P1Sdw, msg.P1Act},
}

// TestChannelCountsSumExactly sends probes over all six directed channels
// from several goroutines while others read Stats, ProbeStats and registry
// snapshots; once the traffic drains, every sum — the carrier's, the
// router's and the registry's — must equal what was sent, channel by
// channel. Run under -race -count=10 it patrols the counters' ownership.
func TestChannelCountsSumExactly(t *testing.T) {
	reg := obs.NewRegistry()
	mw, tn := newProbeCluster(t, func(c *Config) { c.Obs = reg })

	const (
		senders   = 6
		perSender = 600
		readers   = 3
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mw.NetworkStats()
				mw.ProbeStats()
				tn.crcDropCount()
				reg.Snapshot()
			}
		}()
	}
	var send sync.WaitGroup
	for s := 0; s < senders; s++ {
		send.Add(1)
		go func() {
			defer send.Done()
			// Every sender covers every channel, starting at its own.
			for i := 0; i < perSender; i++ {
				p := sixPairs[(s+i)%len(sixPairs)]
				mw.SendProbe(p[0], p[1])
			}
		}()
	}
	send.Wait()
	const total = senders * perSender
	waitProbeDeliveries(t, mw, total)
	close(stop)
	wg.Wait()

	if s, d := mw.ProbeStats(); s != total || d != total {
		t.Fatalf("ProbeStats = %d sent, %d delivered, want both %d", s, d, total)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, d := mw.NetworkStats()
		if s == total && d == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("NetworkStats = %d sent, %d delivered, want both %d", s, d, total)
		}
		time.Sleep(time.Millisecond)
	}
	const perChannel = total / 6
	for _, p := range sixPairs {
		from, to := p[0], p[1]
		if got := tn.writers[from][to].sent.Load(); got != perChannel {
			t.Errorf("%v→%v: writer counted %d sends, want %d", from, to, got, perChannel)
		}
		if got := tn.recv[from][to].delivered.Load(); got != perChannel {
			t.Errorf("%v→%v: reader counted %d deliveries, want %d", from, to, got, perChannel)
		}
		if got := mw.routed[from][to].probes.Load(); got != perChannel {
			t.Errorf("%v→%v: router counted %d probes, want %d", from, to, got, perChannel)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"synergy_live_probes_sent_total", "synergy_live_probes_delivered_total",
		"synergy_live_msgs_sent_total", "synergy_live_msgs_delivered_total",
	} {
		if got := counterValue(t, snap, name); got != total {
			t.Errorf("%s = %v, want %d", name, got, total)
		}
	}
	for _, name := range []string{"synergy_live_crc_dropped_frames_total", "synergy_live_acks_total"} {
		if got := counterValue(t, snap, name); got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
}
