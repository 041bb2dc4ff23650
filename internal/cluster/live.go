package cluster

import (
	"math/rand"
	"sync"
	"time"

	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Live is a cluster on real goroutines and wall-clock timers: every node is
// serialized by its own lock, reliable channels run through per-pair FIFO
// delivery queues, and gossip packets cross the encoded wire format. Live
// mode validates the concurrency story the simulator cannot (lock ordering,
// timer races, codec round-trips) at 10 nodes; software error recovery stays
// simulator-only — Live has no corruption API, so a live acceptance test
// failure is a protocol bug and panics.
type Live struct{ *Cluster }

// liveRuntime implements runtime on the wall clock.
type liveRuntime struct {
	start time.Time
	locks [maxNodeID + 1]sync.Mutex
	rng   *rand.Rand // over a lockedSource: timer goroutines share it

	qmu    sync.Mutex
	queues map[pairKey]*pairQueue
}

// lockedSource makes one seeded source safe across timer goroutines.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

func (rt *liveRuntime) Now() vtime.Time { return vtime.Time(time.Since(rt.start)) }

func (rt *liveRuntime) After(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

func (rt *liveRuntime) wait(d time.Duration) { time.Sleep(d) }

// hold takes the node locks in the given (ascending) order.
func (rt *liveRuntime) hold(ids []msg.ProcID) {
	for _, id := range ids {
		rt.locks[id].Lock()
	}
}

func (rt *liveRuntime) release(ids []msg.ProcID) {
	for i := len(ids) - 1; i >= 0; i-- {
		rt.locks[ids[i]].Unlock()
	}
}

// quiesce cannot be granted: the caller already holds some node locks, and
// taking the rest from there would break the ascending order.
func (rt *liveRuntime) quiesce() bool { return false }

func (rt *liveRuntime) deliver(from, to msg.ProcID, delay time.Duration, fn func()) {
	k := pairKey{from: from, to: to}
	rt.qmu.Lock()
	q, ok := rt.queues[k]
	if !ok {
		q = &pairQueue{}
		rt.queues[k] = q
	}
	rt.qmu.Unlock()
	q.enqueue(fn, time.Now().Add(delay))
}

// datagram ships the packet through the real codec.
func (rt *liveRuntime) datagram(p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	frame := gossip.EncodePacket(nil, p)
	time.AfterFunc(delay, func() {
		if pkt, err := gossip.DecodePacket(frame); err == nil {
			handle(pkt)
		}
	})
}

func (rt *liveRuntime) rand() *rand.Rand { return rt.rng }

// NewLive builds a live cluster (Start arms it).
func NewLive(cfg Config) (*Live, error) {
	cl, err := newCluster(cfg, &liveRuntime{
		start:  time.Now(),
		rng:    rand.New(&lockedSource{src: rand.NewSource(mixSeed(cfg.Seed, 0x11FE))}),
		queues: make(map[pairKey]*pairQueue),
	})
	if err != nil {
		return nil, err
	}
	return &Live{cl}, nil
}

// pairQueue is one directed node pair's in-flight delivery queue: FIFO by
// construction (a delivery never overtakes the tail), drained by a single
// timer chain.
type pairQueue struct {
	mu      sync.Mutex
	items   []queuedDelivery
	running bool
}

type queuedDelivery struct {
	fn  func()
	due time.Time
}

func (q *pairQueue) enqueue(fn func(), due time.Time) {
	q.mu.Lock()
	if n := len(q.items); n > 0 && due.Before(q.items[n-1].due) {
		due = q.items[n-1].due
	}
	q.items = append(q.items, queuedDelivery{fn: fn, due: due})
	if !q.running {
		q.running = true
		q.arm(due)
	}
	q.mu.Unlock()
}

func (q *pairQueue) arm(due time.Time) {
	time.AfterFunc(time.Until(due), q.drain)
}

func (q *pairQueue) drain() {
	for {
		q.mu.Lock()
		if len(q.items) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		head := q.items[0]
		if wait := time.Until(head.due); wait > 0 {
			q.arm(head.due)
			q.mu.Unlock()
			return
		}
		q.items = q.items[1:]
		q.mu.Unlock()
		head.fn()
	}
}

// SampleInvariants is CheckInvariants under the name the live benchmark
// harness calls.
func (lv *Live) SampleInvariants() (round uint64, violations, absorbed []invariant.Violation, err error) {
	return lv.CheckInvariants()
}
