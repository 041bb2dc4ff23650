package live

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/msg"
)

// tcpNet runs the interconnect over loopback TCP: one listener per node, ONE
// connection per undirected node pair — TCP is full duplex, so the A→B and
// B→A channels multiplex onto the two directions of a single socket (halving
// the connection count, DESIGN §13) while the byte-stream ordering still
// gives per-channel FIFO for free — and a per-directed-channel writer
// goroutine that coalesces queued frames into length-prefixed batches:
//
//	batchLen | epoch | enqNanos | n | (crc32 | payload) * n
//
// A writer drains its queue into one batch and flushes when the configured
// deadline expires (default 200µs), the sub-frame or byte cap is hit, or the
// epoch changes mid-queue. Batching amortizes the per-write syscall across
// every coalesced message — the transport's throughput is syscall-bound, so
// this is the order-of-magnitude lever — while the per-sub-frame CRC keeps
// the old corrupt-frame-drop semantics: one flipped sub-frame is dropped
// alone and its batch siblings still deliver. The epoch rides once per batch;
// a recovery flush bumps it, so receivers discard whole stale batches, and
// writers abandon retries of stale batches. enqNanos carries the oldest
// sub-frame's middleware-relative enqueue instant so the receiver can observe
// end-to-end delivery latency (sender and receiver share the process clock).
//
// The hot paths are built to disappear at high rates: the send side is a
// lock-free writer lookup plus one short per-channel mutex (the writer swaps
// the whole queued slice out under that same mutex, so locking amortizes
// across the batch), encode/decode scratch comes from a sync.Pool with a
// zero-alloc steady state (asserted by TestBatchEncodeZeroAlloc), and the
// sub-frame checksum is CRC32-Castagnoli, which has hardware support on the
// targets we run.
//
// Cache lines are owned by whoever writes them, so no per-message write lands
// on a line another core reads per message (a shared written line costs a
// coherence miss per access, which at millions of messages per second is most
// of the transport's CPU):
//
//   - epoch and closed share a line that every writer and reader goroutine
//     reads per frame and only Flush and close write;
//   - a channel's send count lives in its writerState, written by senders
//     inside enqueue's critical section, on the line its mutex already
//     moves; device-bound sends have a padded counter of their own;
//   - a channel's delivered and CRC-drop counts are one padded slot,
//     written once per batch by that direction's read loop.
//
// Stats and crcDropCount add the slots up; nothing on the send or delivery
// path reads another goroutine's counter.
//
// Writer queues are bounded; a full queue blocks the sender (backpressure,
// counted as a blocked send) and never silently drops — frames are truly lost
// only when a recovery flush or node crash invalidates their epoch, exactly
// the losses the TB unacknowledged logs re-cover.
//
// Connection lifecycle: the pair's lower-ID node is the DESIGNATED DIALER —
// only it ever connects, so the two sides never race to establish duplicate
// sockets. A per-pair maintainer goroutine keeps the link up (eagerly at
// assembly, redialing with capped backoff plus jitter whenever it breaks and
// both endpoints are up), identifying itself with a two-byte hello before any
// batch flows. Each direction's writer owns its own end of the socket — the
// dialer side writes the dialed end, the acceptor side writes the accepted
// end — so neither the write nor the read path is ever shared between the
// two directions. A mid-write error severs the link and the writer retries
// the same batch once the maintainer has redialed — so a node crash-restart
// (Down/Up swaps the victim's listener) heals without losing
// still-current batches, in BOTH directions of every pair the victim touched.
type tcpNet struct {
	// The read-mostly line: every writer and reader goroutine reads epoch
	// and closed per frame, and only Flush and close write them. Nothing
	// written per message or per batch sits within a line of them.
	epoch  atomic.Uint64
	closed atomic.Bool

	mw *Middleware
	// maxFrames caps sub-frames per batch, resolved from Config at assembly.
	maxFrames int

	// writers is indexed [from][to]; every directed pair between the three
	// fixed processes is pre-created at assembly, so the send path is a
	// lock-free array lookup.
	writers [msg.Device + 1][msg.Device + 1]*writerState

	// deviceSent counts device-bound sends (they never reach a writer).
	deviceSent paddedCount
	// recv is indexed [from][to]: the directed channel's delivered and
	// CRC-dropped sub-frames, written only by that direction's read loop.
	recv [msg.Device + 1][msg.Device + 1]recvCounts
	_    [cacheLine]byte

	mu        sync.Mutex
	listeners map[msg.ProcID]net.Listener
	addrs     map[msg.ProcID]string
	// links holds the one shared connection per undirected pair (keyed with
	// the lower ProcID first); kicks are the per-pair redial doorbells, built
	// at assembly and immutable after.
	links   map[pair]*pairLink
	kicks   map[pair]chan struct{}
	readers map[msg.ProcID]map[net.Conn]struct{}
	seed    int64

	done chan struct{}
	wg   sync.WaitGroup
}

// writerState is the sender-facing half of one directed channel: a bounded
// slice queue the writer goroutine swaps out whole (one mutex acquisition
// drains an entire batch), the wake/space doorbells and the delivery-delay
// rng (owned by this pair, drawn under the queue mutex because any node
// goroutine may send).
type writerState struct {
	mu       sync.Mutex
	queue    []frame
	closed   bool
	delayRng *rand.Rand
	// sent counts the frames queued on this channel. Only enqueue writes
	// it, under mu (so a plain load-and-store suffices); Stats reads it
	// without the lock.
	sent atomic.Uint64

	// wake is rung when a frame lands in an empty queue (the writer only
	// sleeps after observing emptiness, so one token cannot be missed);
	// space is rung on every drain so senders blocked on a full queue
	// retry. Both are 1-buffered and rung with non-blocking sends.
	wake  chan struct{}
	space chan struct{}

	// Round the struct up to a whole number of cache lines: its size class
	// then starts every writerState on a line boundary, so two channels'
	// queue locks never share one.
	_ [cacheLine - 8]byte
}

// enqueue queues a frame carrying m, blocking while the queue is at capacity
// (backpressure — never a silent drop), and counts it. The frame is built in
// its queue slot, so the message is copied once on its way to the wire. An
// unstamped frame (enq zero) whose channel count is a multiple of
// latencySampleMask+1 gets a delivery-latency enqueue stamp, taken from
// start: even the monotonic clock read costs tens of nanoseconds, so only one
// send in every (latencySampleMask+1) pays for it, and a sampled histogram
// answers the same p50/p99 questions. blocked reports whether the caller
// waited; ok is false only when the transport shut down first.
func (ws *writerState) enqueue(m *msg.Message, epoch uint64, sendAt, enq time.Duration, start time.Time, done <-chan struct{}) (blocked, ok bool) {
	for {
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			return blocked, false
		}
		if n := len(ws.queue); n < writerQueueDepth {
			if n < cap(ws.queue) {
				ws.queue = ws.queue[:n+1]
			} else {
				ws.queue = append(ws.queue, frame{})
			}
			sn := ws.sent.Load() + 1
			ws.sent.Store(sn)
			if enq == 0 && sn&latencySampleMask == 0 {
				enq = time.Since(start)
			}
			f := &ws.queue[n]
			f.epoch, f.sendAt, f.enq = epoch, sendAt, enq
			f.message = *m
			ws.mu.Unlock()
			if n == 0 {
				select {
				case ws.wake <- struct{}{}:
				default:
				}
			}
			if blocked {
				// Other senders may still be parked; forward the token
				// so they re-check the freed capacity too.
				select {
				case ws.space <- struct{}{}:
				default:
				}
			}
			return blocked, true
		}
		ws.mu.Unlock()
		blocked = true
		select {
		case <-ws.space:
		case <-done:
			return blocked, false
		}
	}
}

// drainInto swaps the queued frames out, handing into's storage (which the
// caller must no longer reference) to the queue. One lock round-trip drains
// everything a batch will carry.
func (ws *writerState) drainInto(into []frame) []frame {
	ws.mu.Lock()
	q := ws.queue
	ws.queue = into[:0]
	ws.mu.Unlock()
	if len(q) > 0 {
		select {
		case ws.space <- struct{}{}:
		default:
		}
	}
	return q
}

// shut marks the queue closed and frees blocked senders.
func (ws *writerState) shut() {
	ws.mu.Lock()
	ws.closed = true
	ws.mu.Unlock()
	select {
	case ws.space <- struct{}{}:
	default:
	}
}

type frame struct {
	epoch uint64
	// sendAt is the middleware-relative artificial-delay release instant;
	// zero means no delay, letting the writer skip every per-frame clock
	// read on the zero-delay hot path.
	sendAt time.Duration
	// enq is the middleware-relative enqueue instant, carried on the wire
	// (oldest per batch) for the receiver's delivery-latency histogram.
	enq     time.Duration
	message msg.Message
}

// Batch wire-format layout.
const (
	// batchLenSize prefixes every batch with its remaining byte length.
	batchLenSize = 4
	// batchHeaderLen covers epoch (8) + enqNanos (8) + sub-frame count (4).
	batchHeaderLen = 8 + 8 + 4
	// subFrameSize is one CRC32-guarded encoded message.
	subFrameSize = 4 + msg.EncodedSize
	// maxBatchWire bounds a received batch length; anything larger is a
	// framing error and drops the connection.
	maxBatchWire = 1 << 24
)

// Batching bounds. A writer coalesces queued frames for at most
// flushDeadline (from the first frame) before putting a partial batch on the
// wire — more would amortize more syscalls per batch at the cost of added
// delivery latency — and a batch never exceeds maxBatchBytes on the wire. The
// frame cap defaults to defaultBatchFrames and is overridable via Config. Each
// directed channel's writer queue holds writerQueueDepth frames; a full queue
// blocks the sender until the writer drains (backpressure), so frames are
// never silently dropped.
const (
	flushDeadline      = 200 * time.Microsecond
	maxBatchBytes      = 64 << 10
	defaultBatchFrames = 512
	writerQueueDepth   = 1024
)

// latencySampleMask selects which zero-delay sends carry a delivery-latency
// enqueue stamp: one in (mask+1) per channel (see enqueue).
const latencySampleMask = 15

// cacheLine is the coherence unit the transport's hot state is laid out by.
const cacheLine = 64

// paddedCount is a counter with a cache line of padding ahead of it, so it
// never shares a line with what precedes it; the next padded field keeps it
// clear of what follows.
type paddedCount struct {
	_ [cacheLine]byte
	atomic.Uint64
}

// recvCounts is one directed channel's receive-side counts, written only by
// that direction's read loop (once per batch), padded like paddedCount.
type recvCounts struct {
	_                   [cacheLine]byte
	delivered, crcDrops atomic.Uint64
}

// Transport fault-handling knobs.
const (
	tcpDialTimeout  = time.Second
	tcpWriteTimeout = time.Second
	tcpBackoffBase  = 2 * time.Millisecond
	tcpBackoffCap   = 250 * time.Millisecond
	// tcpRetransmitDelay emulates the link layer's retransmission timeout
	// for a chaos-dropped first transmission. Shared with the simulated
	// interconnect so a drop costs the same in both execution paths.
	tcpRetransmitDelay = chaos.RetransmitDelay
)

// Link-establishment hello: the designated dialer's first bytes on a fresh
// connection name the dialing node, pinning the socket to its undirected
// pair before any batch flows.
const (
	helloMagic   = 0xA7
	helloLen     = 2
	helloTimeout = 2 * time.Second
)

// upair normalizes a directed channel to its undirected connection key: the
// lower ProcID first. That node is the pair's designated dialer.
func upair(a, b msg.ProcID) pair {
	if a > b {
		a, b = b, a
	}
	return pair{from: a, to: b}
}

// pairLink is one undirected pair's shared TCP connection, tracked as its two
// in-process ends (both nodes live in this process, so the dialed and the
// accepted end of the same socket are both here). The lower-ID node writes
// its outbound batches to the dialed end and reads inbound ones from it; the
// higher-ID node does the same with the accepted end — each end has exactly
// one writer and one reader, so the directions never share a socket half.
type pairLink struct {
	client net.Conn // dialed end, owned by the pair's lower-ID node
	server net.Conn // accepted end, owned by the higher-ID node
}

// crcTable is the Castagnoli polynomial: same detection strength as IEEE for
// these frame sizes, with hardware CRC32 instructions on our targets — the
// checksum runs twice per message (encode and verify), so it must be cheap.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// batchPool recycles encode/decode scratch. Buffers grow to the run's
// steady-state batch size and are then reused, so the hot paths allocate
// nothing.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, batchLenSize+batchHeaderLen+32*subFrameSize)
		return &b
	},
}

func newTCPNet(mw *Middleware, seed int64) (*tcpNet, error) {
	cfg := mw.cfg
	n := &tcpNet{
		mw:        mw,
		maxFrames: cfg.BatchMaxFrames,
		listeners: make(map[msg.ProcID]net.Listener),
		addrs:     make(map[msg.ProcID]string),
		links:     make(map[pair]*pairLink),
		kicks:     make(map[pair]chan struct{}),
		readers:   make(map[msg.ProcID]map[net.Conn]struct{}),
		seed:      seed,
		done:      make(chan struct{}),
	}
	if n.maxFrames <= 0 {
		n.maxFrames = defaultBatchFrames
	}
	for _, id := range msg.Processes() {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.close()
			return nil, fmt.Errorf("live: listen for %v: %w", id, err)
		}
		n.listeners[id] = l
		n.addrs[id] = l.Addr().String()
		n.wg.Add(1)
		go n.acceptLoop(id, l)
	}
	for _, from := range msg.Processes() {
		for _, to := range msg.Processes() {
			if from == to {
				continue
			}
			ch := pair{from: from, to: to}
			ws := &writerState{
				queue:    make([]frame, 0, 64),
				delayRng: rand.New(rand.NewSource(mixSeed(seed, ch, 0xD1))),
				wake:     make(chan struct{}, 1),
				space:    make(chan struct{}, 1),
			}
			n.writers[from][to] = ws
			n.wg.Add(1)
			go n.writeLoop(ch, ws)
		}
	}
	procs := msg.Processes()
	for i, a := range procs {
		for _, b := range procs[i+1:] {
			p := upair(a, b)
			k := make(chan struct{}, 1)
			n.kicks[p] = k
			n.wg.Add(1)
			go n.maintainLink(p, k)
		}
	}
	return n, nil
}

var _ transport = (*tcpNet)(nil)

// mixSeed derives a per-(seed, pair, salt) rng seed via splitmix64 so the
// writer-side rngs are deterministic, distinct per channel, and uncorrelated
// with the chaos injector's per-link streams.
func mixSeed(seed int64, ch pair, salt uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(ch.from)<<8|uint64(ch.to)<<16|salt<<24)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// beginBatch starts a batch in buf: length prefix and sub-frame count are
// placeholders patched by finishBatch.
func beginBatch(buf []byte, epoch uint64, enqNanos int64) []byte {
	buf = append(buf[:0], 0, 0, 0, 0) // batchLen, patched by finishBatch
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(enqNanos))
	buf = append(buf, 0, 0, 0, 0) // sub-frame count, patched by finishBatch
	return buf
}

// appendSubFrame appends one crc32|payload sub-frame. The CRC covers the
// payload bytes only — the batch header is never exposed to chaos corruption
// (verdicts are drawn per sub-frame), so guarding the payload preserves the
// corrupt-frame-drop semantics while the variable-length stream stays in
// sync. corruptAt >= 0 flips a bit at that sub-frame offset after the CRC is
// computed, putting a detectably-damaged copy on the wire.
func appendSubFrame(buf []byte, m *msg.Message, corruptAt int, corruptMask byte) []byte {
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0) // CRC slot, filled below
	buf = msg.Encode(buf, *m)
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(buf[off+4:], crcTable))
	if corruptAt >= 0 {
		buf[off+corruptAt] ^= corruptMask
	}
	return buf
}

// finishBatch patches the length prefix and sub-frame count.
func finishBatch(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-batchLenSize))
	nsub := (len(buf) - batchLenSize - batchHeaderLen) / subFrameSize
	binary.LittleEndian.PutUint32(buf[batchLenSize+16:], uint32(nsub))
	return buf
}

func (n *tcpNet) Send(m msg.Message) {
	if m.To == msg.Device {
		n.deviceSent.Add(1)
		return
	}
	if n.closed.Load() {
		return
	}
	w := n.writers[m.From][m.To]
	if w == nil {
		return
	}
	var sendAt, enq time.Duration
	if d, span := n.mw.cfg.MinDelay, int64(n.mw.cfg.MaxDelay-n.mw.cfg.MinDelay); d > 0 || span > 0 {
		if span > 0 {
			w.mu.Lock()
			d += time.Duration(w.delayRng.Int63n(span + 1))
			w.mu.Unlock()
		}
		// Delayed sends already pay for a clock read; stamp them all.
		enq = n.since()
		sendAt = enq + d
	}
	if blocked, _ := w.enqueue(&m, n.epoch.Load(), sendAt, enq, n.mw.rt.Start, n.done); blocked {
		n.mw.obsm.sendBlocked.Inc()
	}
}

// since is the middleware-relative now that frames' instants are kept in.
func (n *tcpNet) since() time.Duration { return time.Since(n.mw.rt.Start) }

// sleep waits out d, returning false if the transport shut down first.
func (n *tcpNet) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-n.done:
		return false
	}
}

// stale reports whether the epoch was invalidated by a flush (or the
// transport closed): delivering or retrying it would surface pre-rollback
// state.
func (n *tcpNet) stale(epoch uint64) bool {
	return epoch != n.epoch.Load() || n.closed.Load()
}

// maintainLink keeps one undirected pair's shared connection established. It
// runs at the pair's designated dialer (the lower ProcID): whenever both
// endpoints are up and no link exists, it dials the higher node's listener,
// sends the identifying hello, and registers the dialed end; severed links
// ring the kick doorbell to trigger the redial. A pair with a down endpoint
// parks until Up kicks it — a crashed node must not regrow
// connectivity before it rejoins.
func (n *tcpNet) maintainLink(p pair, kick <-chan struct{}) {
	defer n.wg.Done()
	jrng := rand.New(rand.NewSource(mixSeed(n.seed, p, 0xC0)))
	backoff := tcpBackoffBase
	for {
		n.mu.Lock()
		addr, peerUp := n.addrs[p.to]
		_, selfUp := n.addrs[p.from]
		link := n.links[p]
		n.mu.Unlock()
		if n.closed.Load() {
			return
		}
		if (link != nil && link.client != nil) || !peerUp || !selfUp {
			// Link healthy, or an endpoint is down: park until kicked.
			backoff = tcpBackoffBase
			select {
			case <-kick:
			case <-n.done:
				return
			}
			continue
		}
		c, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
		if err == nil {
			_ = c.SetWriteDeadline(time.Now().Add(helloTimeout))
			_, err = c.Write([]byte{helloMagic, byte(p.from)})
			_ = c.SetWriteDeadline(time.Time{})
			if err != nil {
				c.Close()
			}
		}
		if err != nil {
			n.mw.obsm.retries.Inc()
			if !n.sleep(backoffJitter(&backoff, jrng)) {
				return
			}
			continue
		}
		n.mu.Lock()
		_, peerUp = n.addrs[p.to]
		_, selfUp = n.addrs[p.from]
		if n.closed.Load() || !peerUp || !selfUp {
			n.mu.Unlock()
			c.Close()
			continue
		}
		link = n.links[p]
		if link == nil {
			link = &pairLink{}
			n.links[p] = link
		}
		// The accepted end of this very dial may have registered first (both
		// ends live in this process); a non-nil client cannot — only this
		// goroutine sets it, and severed links are torn down whole.
		link.client = c
		n.addReaderLocked(p.from, c)
		n.wg.Add(1)
		n.mu.Unlock()
		n.mw.obsm.connects.Inc()
		backoff = tcpBackoffBase
		go n.readLoop(p.from, p, c)
	}
}

// addReaderLocked records a socket end as living at the given node, so
// Down can sever everything the node terminates. Caller holds n.mu.
func (n *tcpNet) addReaderLocked(id msg.ProcID, c net.Conn) {
	set, ok := n.readers[id]
	if !ok {
		set = make(map[net.Conn]struct{})
		n.readers[id] = set
	}
	set[c] = struct{}{}
}

// severLink closes a dead socket end and repairs the pair's registry: a dead
// dialed end means the connection is gone, so the whole link is torn down and
// the maintainer kicked to redial; a dead accepted end alone just clears that
// half (its dialed twin's death will finish the teardown). A stale end — no
// longer the registered one — is only closed.
func (n *tcpNet) severLink(p pair, c net.Conn) {
	c.Close()
	kick := false
	n.mu.Lock()
	if link := n.links[p]; link != nil {
		switch c {
		case link.client:
			if link.server != nil {
				link.server.Close()
			}
			delete(n.links, p)
			kick = true
		case link.server:
			link.server = nil
		}
	}
	n.mu.Unlock()
	if kick {
		select {
		case n.kicks[p] <- struct{}{}:
		default:
		}
	}
}

// writeLoop owns one directed channel: it drains the queue in whole-slice
// swaps (a single writer per channel keeps FIFO), sleeps out each frame's
// artificial delay, and hands runs of frames to batch, which coalesces them
// into length-prefixed wire batches. A frame whose epoch went stale while
// queued is discarded without touching the wire. pending and the queue's
// backing array ping-pong through drainInto, so the steady state allocates
// nothing.
func (n *tcpNet) writeLoop(ch pair, ws *writerState) {
	defer n.wg.Done()
	w := &chanWriter{
		n:  n,
		ch: ch,
		// Backoff jitter is deterministic per pair given the run seed, and
		// private to this goroutine — no shared-rng draws on the write path.
		jrng:  rand.New(rand.NewSource(mixSeed(n.seed, ch, 0xB0))),
		timer: time.NewTimer(time.Hour),
	}
	// Go 1.23+ timer channels are synchronous: Stop/Reset suppress any
	// pending fire, so the old drain-after-Stop idiom is not only
	// unnecessary but would block forever on a stale-fire race.
	w.timer.Stop()
	defer w.timer.Stop()
	var pending []frame
	i := 0
	for {
		if i == len(pending) {
			pending, i = ws.drainInto(pending), 0
			if len(pending) == 0 {
				select {
				case <-ws.wake:
				case <-n.done:
					return
				}
				continue
			}
		}
		f := &pending[i]
		i++
		if n.stale(f.epoch) {
			continue // invalidated by a flush while queued
		}
		if f.sendAt != 0 && !n.sleep(f.sendAt-n.since()) {
			return
		}
		var ok bool
		pending, i, ok = w.batch(f, ws, pending, i)
		if !ok {
			return
		}
	}
}

// chanWriter is one directed channel's transmit state. It owns no connection
// — batches go out on this direction's end of the pair's shared link, looked
// up per transmit (the maintainer owns establishment).
type chanWriter struct {
	n     *tcpNet
	ch    pair
	jrng  *rand.Rand
	timer *time.Timer // flush-deadline timer, reused across batches
}

// batch coalesces first plus whatever pending and the queue yield before the
// flush deadline into one wire batch, drawing the chaos verdict per
// sub-frame, and transmits it. A frame that cannot join (epoch change or a
// sendAt past the deadline) is left at pending[i] to start the next batch.
// Returns the updated pending/cursor and reports false only when the
// transport shuts down.
//
// Chaos faults model a noisy wire under a reliable link layer — the
// protocol's channel contract (FIFO, no silent loss outside recovery flushes)
// is preserved: a "dropped" sub-frame costs a retransmission timeout before
// its copy joins the batch, a "corrupted" one puts a bit-flipped copy on the
// wire (the receiver CRC-drops it) followed by a clean retransmission
// sub-frame, a duplicate appears twice (the protocol's dedup re-acks it), and
// a partition stalls the writer until heal. Verdicts are drawn once per
// message in FIFO order, before any connection retrying, so fault decisions
// form a deterministic per-link sequence regardless of retry timing.
func (w *chanWriter) batch(first *frame, ws *writerState, pending []frame, i int) ([]frame, int, bool) {
	n := w.n
	// Copy the scalars out of first now: it points into pending, whose
	// backing array drainInto hands back to the queue, so the pointer must
	// not be read after the first top-up drain.
	epoch := first.epoch
	// enqNanos is the batch's delivery-latency sample: the first stamped
	// frame to join (sends stamp only 1 in latencySampleMask+1 — zero means
	// "no sample"; the header is patched when a later frame brings one).
	enqNanos := int64(first.enq)
	bp := batchPool.Get().(*[]byte)
	buf := beginBatch(*bp, epoch, enqNanos)
	nsub := 0
	inj := n.mw.inj
	appendMsg := func(f *frame) bool {
		if inj == nil {
			// No chaos configured: skip the verdict machinery entirely —
			// this branch is the high-throughput production path.
			buf = appendSubFrame(buf, &f.message, -1, 0)
			nsub++
			return true
		}
		v := inj.FrameVerdict(w.ch.from, w.ch.to, n.since(), subFrameSize)
		if v.ExtraDelay > 0 && !n.sleep(v.ExtraDelay) {
			return false
		}
		if v.Drop {
			// The wire ate the first transmission; the link layer's
			// retransmission timeout passes before the copy below joins.
			if !n.sleep(tcpRetransmitDelay) {
				return false
			}
		}
		if v.CorruptByte >= 0 {
			// Corrupted copy first: the receiver detects the flip via CRC
			// and drops that sub-frame alone; the clean copy below is the
			// retransmission that restores the stream.
			buf = appendSubFrame(buf, &f.message, v.CorruptByte, v.CorruptMask)
			nsub++
		}
		buf = appendSubFrame(buf, &f.message, -1, 0)
		nsub++
		if v.Duplicate {
			buf = appendSubFrame(buf, &f.message, -1, 0)
			nsub++
		}
		return true
	}
	release := func() {
		*bp = buf[:0]
		batchPool.Put(bp)
	}
	if !appendMsg(first) {
		release()
		return pending, i, false
	}
	deadline := n.since() + flushDeadline
accumulate:
	for nsub < n.maxFrames && len(buf) < maxBatchBytes {
		if i == len(pending) {
			// pending is exhausted: top up from the queue, waiting out
			// the remainder of the flush deadline if it is empty.
			pending, i = ws.drainInto(pending), 0
			if len(pending) == 0 {
				wait := deadline - n.since()
				if wait <= 0 {
					break accumulate
				}
				w.timer.Reset(wait)
				select {
				case <-ws.wake:
					w.timer.Stop()
				case <-w.timer.C:
					break accumulate
				case <-n.done:
					release()
					return pending, i, false
				}
			}
			continue
		}
		f := &pending[i]
		if n.stale(f.epoch) {
			i++
			continue // invalidated by a flush while queued
		}
		if f.epoch != epoch || f.sendAt > deadline {
			// Can't join this batch: flush what we have; pending[i]
			// starts the next batch (writeLoop sleeps out its delay).
			break accumulate
		}
		i++
		if f.sendAt != 0 && !n.sleep(f.sendAt-n.since()) {
			release()
			return pending, i, false
		}
		if enqNanos == 0 && f.enq != 0 {
			enqNanos = int64(f.enq)
			binary.LittleEndian.PutUint64(buf[batchLenSize+8:], uint64(enqNanos))
		}
		if !appendMsg(f) {
			release()
			return pending, i, false
		}
	}
	buf = finishBatch(buf)
	n.mw.obsm.batchFrames.Observe(float64(nsub))
	n.mw.obsm.batchBytes.Observe(float64(len(buf)))
	ok := w.transmit(buf, epoch)
	release()
	return pending, i, ok
}

// transmit puts one batch on this direction's end of the pair's shared
// connection, retrying with capped exponential backoff plus jitter while the
// link is down (the maintainer redials; a kick nudges it awake), through
// mid-write errors (the link is severed and the batch retried whole on a
// fresh connection — the length-prefixed stream only stays in sync if a
// connection starts clean) and chaos partition windows. The batch is
// abandoned once its epoch goes stale; transmit reports false only when the
// transport shuts down.
func (w *chanWriter) transmit(batch []byte, epoch uint64) bool {
	n := w.n
	backoff := tcpBackoffBase
	p := upair(w.ch.from, w.ch.to)
	for {
		if n.stale(epoch) {
			return true
		}
		if inj := n.mw.inj; inj != nil && inj.BlockedAttempt(w.ch.from, w.ch.to, n.since()) {
			n.mw.obsm.retries.Inc()
			if !n.sleep(backoffJitter(&backoff, w.jrng)) {
				return false
			}
			continue
		}
		var c net.Conn
		n.mu.Lock()
		if link := n.links[p]; link != nil {
			if w.ch.from < w.ch.to {
				c = link.client
			} else {
				c = link.server
			}
		}
		n.mu.Unlock()
		if c == nil {
			// Link not (re)established yet: nudge the maintainer and wait.
			select {
			case n.kicks[p] <- struct{}{}:
			default:
			}
			n.mw.obsm.retries.Inc()
			if !n.sleep(backoffJitter(&backoff, w.jrng)) {
				return false
			}
			continue
		}
		_ = c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if _, err := c.Write(batch); err != nil {
			n.severLink(p, c)
			n.mw.obsm.retries.Inc()
			if !n.sleep(backoffJitter(&backoff, w.jrng)) {
				return false
			}
			continue
		}
		return true
	}
}

// backoffJitter returns the next retry delay — the current backoff plus up
// to 50% jitter — and doubles the backoff toward the cap.
func backoffJitter(backoff *time.Duration, rng *rand.Rand) time.Duration {
	d := *backoff
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	*backoff *= 2
	if *backoff > tcpBackoffCap {
		*backoff = tcpBackoffCap
	}
	return d
}

func (n *tcpNet) acceptLoop(id msg.ProcID, l net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed.Load() {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.addReaderLocked(id, conn)
		n.wg.Add(1)
		n.mu.Unlock()
		go n.handleConn(id, conn)
	}
}

// handleConn completes the accept side of link establishment: the hello frame
// names the dialer, pinning the connection to its undirected pair. The
// accepted end is then registered as the higher node's half of the link — its
// writers transmit on it, and this goroutine becomes its read loop.
func (n *tcpNet) handleConn(id msg.ProcID, conn net.Conn) {
	reject := func() {
		conn.Close()
		n.mu.Lock()
		if set, ok := n.readers[id]; ok {
			delete(set, conn)
		}
		n.mu.Unlock()
		n.wg.Done()
	}
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil || hello[0] != helloMagic {
		reject()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	dialer := msg.ProcID(hello[1])
	if dialer >= id {
		// The designated dialer is always the pair's lower ProcID; anything
		// else is a framing error.
		reject()
		return
	}
	p := upair(dialer, id)
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		reject()
		return
	}
	link := n.links[p]
	if link == nil {
		link = &pairLink{}
		n.links[p] = link
	}
	if link.server != nil && link.server != conn {
		// A redial raced the stale accepted end's teardown: newest wins.
		link.server.Close()
	}
	link.server = conn
	n.mu.Unlock()
	n.readLoop(id, p, conn) // consumes acceptLoop's wg slot
}

// readLoop consumes length-prefixed batches. The epoch is checked per batch
// (a stale batch — invalidated by a recovery flush — is discarded whole, and
// a flush that lands mid-batch discards the remainder), the CRC per
// sub-frame (a corrupted sub-frame is dropped alone; the stream stays in
// sync because the length prefix already delimited the batch). Decode
// scratch is pooled and the counts go to this direction's own slot once per
// batch, so the steady-state read path allocates nothing, touches no mutex
// and writes no line another goroutine writes.
func (n *tcpNet) readLoop(id msg.ProcID, p pair, conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		if set, ok := n.readers[id]; ok {
			delete(set, conn)
		}
		n.mu.Unlock()
		// severLink closes conn and, when this was the link's dialed end,
		// tears the link down and kicks the maintainer to redial.
		n.severLink(p, conn)
	}()
	from := p.from
	if from == id {
		from = p.to
	}
	counts := &n.recv[from][id]
	var hdr [batchLenSize]byte
	bp := batchPool.Get().(*[]byte)
	defer func() { batchPool.Put(bp) }()
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		blen := int(binary.LittleEndian.Uint32(hdr[:]))
		if blen < batchHeaderLen+subFrameSize || blen > maxBatchWire ||
			(blen-batchHeaderLen)%subFrameSize != 0 {
			return // framing broken; drop the connection
		}
		buf := *bp
		if cap(buf) < blen {
			buf = make([]byte, 0, blen)
			*bp = buf
		}
		buf = buf[:blen]
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		epoch := binary.LittleEndian.Uint64(buf)
		enq := time.Duration(binary.LittleEndian.Uint64(buf[8:]))
		nsub := int(binary.LittleEndian.Uint32(buf[16:]))
		if nsub != (blen-batchHeaderLen)/subFrameSize {
			return // framing broken; drop the connection
		}
		if n.stale(epoch) {
			continue // whole stale batch discarded
		}
		good, bad := uint64(0), uint64(0)
		for i := 0; i < nsub; i++ {
			sub := buf[batchHeaderLen+i*subFrameSize:][:subFrameSize]
			if crc32.Checksum(sub[4:], crcTable) != binary.LittleEndian.Uint32(sub) {
				// Corrupted in transit: this sub-frame is dropped but its
				// siblings (and the connection) survive. The clean
				// retransmission copy follows in the same batch.
				bad++
				continue
			}
			m, _, err := msg.Decode(sub[4:])
			if err != nil {
				return // framing broken; drop the connection
			}
			if n.stale(epoch) {
				break // flush landed mid-batch: discard the remainder
			}
			good++
			n.mw.route(&m, false)
		}
		if good > 0 {
			counts.delivered.Add(good)
			// A zero enq means the batch carried no latency sample (senders
			// stamp 1 in latencySampleMask+1). When stamped, one latency
			// applies to the whole batch, recorded per sub-frame without a
			// per-message histogram walk.
			if enq != 0 {
				n.mw.obsm.deliveryLatency.ObserveN(
					(n.since() - enq).Seconds(), good)
			}
		}
		if bad > 0 {
			counts.crcDrops.Add(bad)
		}
	}
}

// Down severs the node's connectivity, emulating its host crashing: the
// listener closes (dials fail until rejoin), every socket end the node
// terminates drops, and every pair link touching the node is torn down whole
// so the next write in either direction errors immediately instead of
// draining into a dead socket. The pairs' maintainers park until Up
// kicks them — the missing address gates their redial.
func (n *tcpNet) Down(id msg.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.listeners[id]; ok {
		l.Close()
		delete(n.listeners, id)
		delete(n.addrs, id)
	}
	for c := range n.readers[id] {
		c.Close()
	}
	for p, link := range n.links {
		if p.to == id || p.from == id {
			if link.client != nil {
				link.client.Close()
			}
			if link.server != nil {
				link.server.Close()
			}
			delete(n.links, p)
		}
	}
}

// Up restores connectivity for a restarted node with a fresh
// listener, then kicks the maintainers of every pair the node touches so the
// shared links re-establish without waiting for traffic.
func (n *tcpNet) Up(id msg.ProcID) error {
	// Listen outside the lock (a blocked listen under n.mu could stall
	// frame delivery), then install under it, backing out on a race.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("live: relisten for %v: %w", id, err)
	}
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		l.Close()
		return fmt.Errorf("live: transport closed")
	}
	if _, ok := n.listeners[id]; ok {
		n.mu.Unlock()
		l.Close()
		return nil
	}
	n.listeners[id] = l
	n.addrs[id] = l.Addr().String()
	n.wg.Add(1)
	n.mu.Unlock()
	go n.acceptLoop(id, l)
	for p, k := range n.kicks {
		if p.from == id || p.to == id {
			select {
			case k <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

func (n *tcpNet) Flush() {
	// Queued-but-unsent frames carry the old epoch and will be discarded
	// at the receivers; writers abandon retries of stale batches.
	n.epoch.Add(1)
}

// Stats adds up the per-channel counts.
func (n *tcpNet) Stats() (sent, delivered uint64) {
	sent = n.deviceSent.Load()
	for from := range n.writers {
		for to, ws := range n.writers[from] {
			if ws != nil {
				sent += ws.sent.Load()
			}
			delivered += n.recv[from][to].delivered.Load()
		}
	}
	return sent, delivered
}

// crcDropCount reports sub-frames dropped by the receivers' integrity checks.
func (n *tcpNet) crcDropCount() (drops uint64) {
	for from := range n.recv {
		for to := range n.recv[from] {
			drops += n.recv[from][to].crcDrops.Load()
		}
	}
	return drops
}

func (n *tcpNet) close() {
	if n.closed.Swap(true) {
		return
	}
	close(n.done)
	for _, from := range msg.Processes() {
		for _, to := range msg.Processes() {
			if ws := n.writers[from][to]; ws != nil {
				ws.shut()
			}
		}
	}
	n.mu.Lock()
	for _, l := range n.listeners {
		l.Close()
	}
	for _, set := range n.readers {
		for c := range set {
			c.Close()
		}
	}
	for _, link := range n.links {
		if link.client != nil {
			link.client.Close()
		}
		if link.server != nil {
			link.server.Close()
		}
	}
	n.mu.Unlock()
	n.wg.Wait()
}
