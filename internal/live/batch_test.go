package live

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
)

func le32(b []byte) uint32  { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64  { return binary.LittleEndian.Uint64(b) }
func crcOf(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// newProbeCluster builds a TCP middleware without starting workload or
// checkpoint timers: the only traffic is probes the test injects, so probe
// and CRC counters are exact.
func newProbeCluster(t *testing.T, mutate func(*Config)) (*Middleware, *tcpNet) {
	t.Helper()
	cfg := DefaultConfig(23)
	cfg.Net = TCPTransport
	cfg.MinDelay, cfg.MaxDelay = 0, 0
	if mutate != nil {
		mutate(&cfg)
	}
	mw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Stop)
	tn, ok := mw.net.(*tcpNet)
	if !ok {
		t.Fatalf("transport is %T, want *tcpNet", mw.net)
	}
	return mw, tn
}

// waitProbeDeliveries polls until at least want probes were consumed.
func waitProbeDeliveries(t *testing.T, mw *Middleware, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, d := mw.ProbeStats(); d >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, d := mw.ProbeStats()
	t.Fatalf("probes did not drain: sent=%d delivered=%d want>=%d", s, d, want)
}

// TestBatchCorruptSubFrameDropsOnlyThatSubFrame corrupts every message
// (Corrupt=1): each probe puts a bit-flipped sub-frame on the wire ahead of
// its clean retransmission copy, in the same batch. Every probe must still
// deliver exactly once (the corrupted sibling is dropped alone — the batch
// survives) and the CRC counter must count exactly one drop per probe.
func TestBatchCorruptSubFrameDropsOnlyThatSubFrame(t *testing.T) {
	mw, tn := newProbeCluster(t, func(c *Config) {
		c.Chaos = chaos.Spec{Seed: 5, Corrupt: 1}
	})
	const probes = 40
	for i := 0; i < probes; i++ {
		mw.SendProbe(msg.P1Act, msg.P2)
	}
	waitProbeDeliveries(t, mw, probes)
	if got := tn.crcDropCount(); got != probes {
		t.Fatalf("crc drops = %d, want %d (one corrupted copy per message)", got, probes)
	}
	if s, d := mw.ProbeStats(); s != probes || d != probes {
		t.Fatalf("probes sent=%d delivered=%d, want both %d", s, d, probes)
	}
}

// TestBatchDuplicateVerdictComposesWithBatches duplicates every message:
// each probe's sub-frame appears twice in its batch and the router must
// consume both copies (probes have no dedup — this asserts the transport
// put both on the wire and delivered both).
func TestBatchDuplicateVerdictComposesWithBatches(t *testing.T) {
	mw, tn := newProbeCluster(t, func(c *Config) {
		c.Chaos = chaos.Spec{Seed: 5, Duplicate: 1}
	})
	const probes = 30
	for i := 0; i < probes; i++ {
		mw.SendProbe(msg.P2, msg.P1Sdw)
	}
	waitProbeDeliveries(t, mw, 2*probes)
	if _, d := mw.ProbeStats(); d != 2*probes {
		t.Fatalf("delivered %d probes, want exactly %d (every message duplicated)", d, 2*probes)
	}
	if got := tn.crcDropCount(); got != 0 {
		t.Fatalf("crc drops = %d, want 0", got)
	}
}

// TestBatchStaleEpochDiscardsWholeBatch hand-builds wire batches and writes
// them on the P1act↔P2 pair's established connection (its dialed end — the
// hello has already been consumed, and with no workload started no writer
// competes for it): a batch stamped with the pre-flush epoch must be
// discarded whole after a recovery-flush epoch bump, while a batch stamped
// with the current epoch delivers every sub-frame. TCP ordering on the single
// connection makes the assertion deterministic.
func TestBatchStaleEpochDiscardsWholeBatch(t *testing.T) {
	mw, tn := newProbeCluster(t, nil)
	p := upair(msg.P1Act, msg.P2)
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for conn == nil {
		tn.mu.Lock()
		if link := tn.links[p]; link != nil {
			conn = link.client
		}
		tn.mu.Unlock()
		if conn == nil {
			if time.Now().After(deadline) {
				t.Fatal("P1act↔P2 link never established")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	mkBatch := func(epoch uint64, nsub int) []byte {
		buf := beginBatch(nil, epoch, 0)
		for i := 0; i < nsub; i++ {
			buf = appendSubFrame(buf, &msg.Message{
				Kind: msg.Probe, From: msg.P1Act, To: msg.P2,
				SN: uint64(i + 1), ChanSeq: uint64(i + 1),
			}, -1, 0)
		}
		return finishBatch(buf)
	}
	staleBatch := mkBatch(tn.epoch.Load(), 3)
	tn.Flush() // recovery flush: the batch built above is now stale
	freshBatch := mkBatch(tn.epoch.Load(), 2)
	if _, err := conn.Write(append(staleBatch, freshBatch...)); err != nil {
		t.Fatal(err)
	}
	waitProbeDeliveries(t, mw, 2)
	// Give any (incorrect) stale deliveries time to surface before the
	// exact-count assertion.
	time.Sleep(50 * time.Millisecond)
	if _, d := mw.ProbeStats(); d != 2 {
		t.Fatalf("delivered %d probes, want exactly 2 (stale batch of 3 discarded whole)", d)
	}
	if got := tn.crcDropCount(); got != 0 {
		t.Fatalf("crc drops = %d, want 0 (stale discard is not a CRC drop)", got)
	}
}

// counterValue reads an unlabeled counter family's value from a snapshot.
func counterValue(t *testing.T, snap obs.Snapshot, name string) float64 {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		var total float64
		for _, s := range f.Series {
			total += s.Value
		}
		return total
	}
	return 0
}

// TestBatchPartitionBackpressureComposition floods a directed partition
// window past the writer queue's depth: the blocked writer backs the queue
// up, sends block (backpressure, never a silent drop), and after the heal
// the backlog drains as multi-frame batches. The stalled writer may hold one
// drained queue's worth besides the full queue, so three queues' worth of
// probes must block. Asserts every probe delivers, the blocked-send counter
// fired, and the batch-size histogram saw real coalescing (more sub-frames
// than batches).
func TestBatchPartitionBackpressureComposition(t *testing.T) {
	reg := obs.NewRegistry()
	mw, _ := newProbeCluster(t, func(c *Config) {
		c.Obs = reg
		c.Chaos = chaos.Spec{Seed: 9, Partitions: []chaos.Partition{
			{A: msg.P1Act, B: msg.P2, Start: 0, End: 300 * time.Millisecond},
		}}
	})
	const probes = 3 * writerQueueDepth
	for i := 0; i < probes; i++ {
		mw.SendProbe(msg.P1Act, msg.P2)
	}
	waitProbeDeliveries(t, mw, probes)
	if s, d := mw.ProbeStats(); s != probes || d != probes {
		t.Fatalf("probes sent=%d delivered=%d, want both %d (backpressure must not drop)", s, d, probes)
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "synergy_live_send_blocked_total"); got == 0 {
		t.Fatal("send_blocked counter is 0: the full queue never exerted backpressure")
	}
	for _, f := range snap.Families {
		if f.Name != "synergy_live_batch_frames" {
			continue
		}
		var sum float64
		var count uint64
		for _, s := range f.Series {
			sum += s.Sum
			count += s.Count
		}
		if count == 0 || sum <= float64(count) {
			t.Fatalf("batch_frames sum=%v count=%d: expected multi-frame batches after the heal", sum, count)
		}
		return
	}
	t.Fatal("synergy_live_batch_frames histogram not registered")
}

// TestBatchEncodeZeroAlloc asserts the steady-state batch encode path —
// begin, N sub-frames, finish — allocates nothing once the scratch buffer
// has grown to size.
func TestBatchEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ms := make([]msg.Message, 32)
	for i := range ms {
		ms[i] = msg.Message{
			Kind: msg.Internal, From: msg.P1Act, To: msg.P2,
			SN: uint64(i + 1), ChanSeq: uint64(i + 1),
			Payload: msg.Payload{Seq: uint64(i), Value: int64(i)},
		}
	}
	buf := make([]byte, 0, batchLenSize+batchHeaderLen+3*len(ms)*subFrameSize)
	allocs := testing.AllocsPerRun(200, func() {
		buf = beginBatch(buf, 7, 12345)
		for i := range ms {
			buf = appendSubFrame(buf, &ms[i], -1, 0)
		}
		buf = finishBatch(buf)
	})
	if allocs != 0 {
		t.Fatalf("batch encode allocates %v/op at steady state, want 0", allocs)
	}
}

// TestBatchWireFormatRoundTrip pins the wire layout: length prefix covers
// everything after itself, the header carries epoch/enqNanos/count, and each
// sub-frame's CRC verifies against its payload.
func TestBatchWireFormatRoundTrip(t *testing.T) {
	m := msg.Message{Kind: msg.PassedAT, From: msg.P2, To: msg.P1Sdw, ValidSN: 17, Ndc: 3}
	buf := finishBatch(appendSubFrame(appendSubFrame(beginBatch(nil, 42, 990), &m, -1, 0), &m, 2, 0x40))
	wantLen := batchLenSize + batchHeaderLen + 2*subFrameSize
	if len(buf) != wantLen {
		t.Fatalf("batch is %d bytes, want %d", len(buf), wantLen)
	}
	if got := int(le32(buf[:4])); got != wantLen-batchLenSize {
		t.Fatalf("length prefix %d, want %d", got, wantLen-batchLenSize)
	}
	if got := le64(buf[4:]); got != 42 {
		t.Fatalf("epoch on wire = %d, want 42", got)
	}
	if got := le64(buf[12:]); got != 990 {
		t.Fatalf("enqNanos on wire = %d, want 990", got)
	}
	if got := le32(buf[20:]); got != 2 {
		t.Fatalf("sub-frame count = %d, want 2", got)
	}
	clean := buf[batchLenSize+batchHeaderLen:][:subFrameSize]
	if crcOf(clean[4:]) != le32(clean) {
		t.Fatal("clean sub-frame CRC mismatch")
	}
	got, rest, err := msg.Decode(clean[4:])
	if err != nil || len(rest) != 0 || got != m {
		t.Fatalf("decode = %+v, %d trailing, %v", got, len(rest), err)
	}
	corrupted := buf[batchLenSize+batchHeaderLen+subFrameSize:][:subFrameSize]
	if crcOf(corrupted[4:]) == le32(corrupted) {
		t.Fatal("corrupted sub-frame passes CRC; the flip landed nowhere")
	}
	if !strings.Contains(msg.Probe.String(), "probe") {
		t.Fatalf("Probe kind renders as %q", msg.Probe.String())
	}
}
