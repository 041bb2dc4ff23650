package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/synergy-ft/synergy/internal/eventq"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Live is a cluster on the wall clock: every node has one event loop (a
// due-ordered queue drained by its own goroutine) that runs its timers, its
// reliable-channel deliveries and, across the encoded wire format, its gossip
// packets; node state is serialized by a per-node lock, since lockstep stream
// events and whole-membership reads span nodes. Live mode validates the
// concurrency story the simulator cannot (lock ordering, timer races, codec
// round-trips) at 10 nodes; software error recovery stays simulator-only —
// Live has no corruption API, so a live acceptance test failure is a protocol
// bug and panics.
type Live struct{ *Cluster }

// liveRuntime implements runtime on the wall clock.
type liveRuntime struct {
	start  time.Time
	locks  [maxNodeID + 1]sync.Mutex
	loops  [maxNodeID + 1]*nodeLoop // non-nil for the membership
	rng    *rand.Rand               // over a lockedSource: the loops share it
	frames sync.Pool                // *[]byte: encoded gossip frames in flight

	once    sync.Once      // launch
	running sync.WaitGroup // the launched goroutines
}

// nodeLoop is one node's inbox and timer wheel. Any goroutine pushes; only
// the node's own goroutine pops, and it runs callbacks holding nothing.
type nodeLoop struct {
	mu      sync.Mutex
	q       eventq.Queue
	hw      [maxNodeID + 1]vtime.Time // per-source FIFO high-water of deliver
	wake    vtime.Time                // the goroutine sleeps until then (0: awake)
	kick    chan struct{}             // a push landed ahead of wake
	stopped bool
}

// push queues fn for due (for an ordered stream: never ahead of *fifo, which
// it advances) and kicks the goroutine if it would otherwise sleep past it.
func (l *nodeLoop) push(due vtime.Time, fifo *vtime.Time, fn func()) eventq.ID {
	l.mu.Lock()
	if fifo != nil {
		if due < *fifo {
			due = *fifo // equal instants pop in push order
		}
		*fifo = due
	}
	id := l.q.Push(due, fn)
	early := due < l.wake
	if early {
		l.wake = due
	}
	l.mu.Unlock()
	if early {
		l.rouse()
	}
	return id
}

// rouse ends the goroutine's sleep (a no-op while a kick is already pending).
func (l *nodeLoop) rouse() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// run drains the loop until halt: callbacks in due order, none before its due
// instant, one reusable timer for the sleep in between. A stale kick, or a
// timer value left by a sleep that a kick cut short, costs one more look.
func (rt *liveRuntime) run(l *nodeLoop) {
	defer rt.running.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		l.mu.Lock()
		if l.stopped {
			l.mu.Unlock()
			return
		}
		now := rt.Now()
		wake := now.Add(time.Hour) // idle: the next push kicks
		if due, ok := l.q.PeekTime(); ok {
			if due <= now {
				_, fn, _ := l.q.Pop()
				l.wake = 0
				l.mu.Unlock()
				fn()
				continue
			}
			wake = due
		}
		l.wake = wake
		l.mu.Unlock()
		timer.Reset(wake.Sub(now))
		select {
		case <-timer.C:
		case <-l.kick:
		}
	}
}

// lockedSource makes one seeded source safe across the node loops.
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

func (rt *liveRuntime) after(id msg.ProcID, d time.Duration, fn func()) (cancel func()) {
	l := rt.loops[id]
	ev := l.push(rt.Now().Add(d), nil, fn)
	return func() {
		l.mu.Lock()
		l.q.Cancel(ev)
		l.mu.Unlock()
	}
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
	l := rt.loops[to]
	l.push(rt.Now().Add(delay), &l.hw[from], fn)
}

// datagram ships the packet through the real codec. Chaos corruption became a
// drop before encoding, so a frame that does not decode is a bug, not loss.
func (rt *liveRuntime) datagram(to msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	frame, _ := rt.frames.Get().(*[]byte)
	if frame == nil {
		frame = new([]byte)
	}
	*frame = gossip.EncodePacket((*frame)[:0], p)
	rt.loops[to].push(rt.Now().Add(delay), nil, func() {
		pkt, err := gossip.DecodePacket(*frame) // copies every payload it keeps
		rt.frames.Put(frame)
		if err != nil {
			panic(fmt.Sprintf("cluster: gossip frame to node %d does not decode: %v", to, err))
		}
		handle(pkt)
	})
}

func (rt *liveRuntime) rand() *rand.Rand { return rt.rng }

// launch starts every node's goroutine, once.
func (rt *liveRuntime) launch() {
	rt.once.Do(func() {
		for _, l := range rt.loops {
			if l != nil {
				rt.running.Add(1)
				go rt.run(l)
			}
		}
	})
}

// halt ends the goroutines, drops what is queued and returns once they have
// exited. Not for use from a loop callback.
func (rt *liveRuntime) halt() {
	rt.once.Do(func() {}) // never launched: never will be
	for _, l := range rt.loops {
		if l != nil {
			l.mu.Lock()
			l.stopped = true
			l.q = eventq.Queue{}
			l.mu.Unlock()
			l.rouse()
		}
	}
	rt.running.Wait()
}

// NewLive builds a live cluster (Start arms it and launches the node loops).
func NewLive(cfg Config) (*Live, error) {
	rt := &liveRuntime{
		start: time.Now(),
		rng:   rand.New(&lockedSource{src: rand.NewSource(mixSeed(cfg.Seed, 0x11FE))}),
	}
	cl, err := newCluster(cfg, rt)
	if err != nil {
		return nil, err
	}
	for _, id := range cl.asg.Nodes {
		rt.loops[id] = &nodeLoop{kick: make(chan struct{}, 1)}
	}
	return &Live{cl}, nil
}

// SampleInvariants is CheckInvariants under the name the live benchmark
// harness calls.
func (lv *Live) SampleInvariants() (round uint64, violations, absorbed []invariant.Violation, err error) {
	return lv.CheckInvariants()
}
