// Package wall is the execution seam's wall-clock implementation: every node
// is a lock plus one event loop — a due-ordered queue drained by the node's
// own goroutine — that runs its timers and the deliveries addressed to it.
// Both protocol assemblies run on it (cluster.Live, live.Middleware); it is
// the only package below them that reads the machine clock.
package wall

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/eventq"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Runtime implements seam.Runtime on the wall clock. New starts one goroutine
// per node; Stop ends them.
type Runtime struct {
	// Start is the instant Now counts from.
	Start   time.Time
	nodes   [256]*node     // by msg.ProcID; non-nil for the membership
	running sync.WaitGroup // the node goroutines
}

var _ seam.Runtime = (*Runtime)(nil)

// node is one member: the lock Hold takes, its seeded source, and its event
// loop. Any goroutine pushes; only the node's own goroutine pops.
type node struct {
	hold sync.Mutex
	rng  *rand.Rand

	mu sync.Mutex // guards everything below
	// held callbacks run holding the node (timers, deliveries); free ones run
	// holding nothing (Post).
	held, free eventq.Queue
	hw         [256]vtime.Time // per-source FIFO high-water of Deliver
	wake       vtime.Time      // the goroutine sleeps until then (0: awake)
	kick       chan struct{}   // a push landed ahead of wake
	stopped    bool
}

// New builds the runtime for the given membership and starts its node loops.
// Each node's source is split from (seed, id).
func New(seed int64, ids []msg.ProcID) *Runtime {
	rt := &Runtime{Start: time.Now()}
	for _, id := range ids {
		src := &source{}
		src.Seed(seed ^ int64(id)<<32)
		n := &node{rng: rand.New(src), kick: make(chan struct{}, 1)}
		rt.nodes[id] = n
		rt.running.Add(1)
		go rt.run(n)
	}
	return rt
}

// source is SplitMix64 with its whole state in one atomic counter, so a
// node's draws need no lock: most happen holding the node, but a gossip
// relay draws its link delay on the node's loop holding nothing.
type source struct{ state atomic.Uint64 }

func (s *source) Seed(seed int64) { s.state.Store(uint64(seed)) }
func (s *source) Int63() int64    { return int64(s.Uint64() >> 1) }

func (s *source) Uint64() uint64 {
	z := s.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// push queues fn on q for due (for an ordered stream: never ahead of *fifo,
// which it advances) and kicks the goroutine if it would otherwise sleep past
// it. A stopped loop takes nothing.
func (n *node) push(q *eventq.Queue, due vtime.Time, fifo *vtime.Time, fn func()) eventq.ID {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0
	}
	if fifo != nil {
		if due < *fifo {
			due = *fifo // equal instants pop in push order
		}
		*fifo = due
	}
	id := q.Push(due, fn)
	early := due < n.wake
	if early {
		n.wake = due
	}
	n.mu.Unlock()
	if early {
		n.rouse()
	}
	return id
}

// rouse ends the goroutine's sleep (a no-op while a kick is already pending).
func (n *node) rouse() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// next picks the queue whose head is due first (mu held).
func (n *node) next() (q *eventq.Queue, due vtime.Time, ok bool) {
	hd, hok := n.held.PeekTime()
	if fd, fok := n.free.PeekTime(); fok && (!hok || fd < hd) {
		return &n.free, fd, true
	}
	return &n.held, hd, hok
}

// run drains the loop until Stop: callbacks in due order, none before its due
// instant, one reusable timer for the sleep in between. "The callback holds
// its node" is the loop taking the node around the call, not a closure per
// event. The clock reading is kept across iterations and taken again only
// when the head is not due under it: a reading is never ahead of true time,
// so what is due under a stale one is due a fortiori, and a backlog drains on
// one read. A stale kick, or a timer value left by a sleep that a kick cut
// short, costs one more look.
func (rt *Runtime) run(n *node) {
	defer rt.running.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var now vtime.Time
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		q, due, ok := n.next()
		if !ok || due > now {
			now = rt.Now()
		}
		if ok && due <= now {
			_, fn, _ := q.Pop()
			n.wake = 0
			n.mu.Unlock()
			if q == &n.held {
				n.hold.Lock()
				fn()
				n.hold.Unlock()
			} else {
				fn()
			}
			continue
		}
		wake := now.Add(time.Hour) // idle: the next push kicks
		if ok {
			wake = due
		}
		n.wake = wake
		n.mu.Unlock()
		timer.Reset(wake.Sub(now))
		select {
		case <-timer.C:
		case <-n.kick:
		}
	}
}

func (rt *Runtime) Now() vtime.Time { return vtime.Time(time.Since(rt.Start)) }

func (rt *Runtime) After(id msg.ProcID, d time.Duration, fn func()) seam.Timer {
	n := rt.nodes[id]
	return seam.Timer{Node: id, Event: n.push(&n.held, rt.Now().Add(d), nil, fn)}
}

// Cancel is harmless on a stopped loop: a push after Stop named no event.
func (rt *Runtime) Cancel(t seam.Timer) {
	if t.Event == 0 {
		return
	}
	n := rt.nodes[t.Node]
	n.mu.Lock()
	n.held.Cancel(t.Event)
	n.mu.Unlock()
}

func (rt *Runtime) Hold(id msg.ProcID)            { rt.nodes[id].hold.Lock() }
func (rt *Runtime) Release(id msg.ProcID)         { rt.nodes[id].hold.Unlock() }
func (rt *Runtime) Rand(id msg.ProcID) *rand.Rand { return rt.nodes[id].rng }

// Recover runs fn on a goroutine of its own: the caller sits inside a node,
// and fn must take every node in order.
func (rt *Runtime) Recover(fn func()) { go fn() }

// Deliver clamps to the destination's high-water for the source, so a pair's
// deliveries pop in submission order (a duplicate sits right behind).
func (rt *Runtime) Deliver(from, to msg.ProcID, delay time.Duration, fn func()) {
	n := rt.nodes[to]
	n.push(&n.held, rt.Now().Add(delay), &n.hw[from], fn)
}

// Post runs fn on node to's loop after delay, holding nothing and unordered:
// for work that takes nodes itself (a gossip packet's handling).
func (rt *Runtime) Post(to msg.ProcID, delay time.Duration, fn func()) {
	n := rt.nodes[to]
	n.push(&n.free, rt.Now().Add(delay), nil, fn)
}

// Wait lets d of true time pass.
func (rt *Runtime) Wait(d time.Duration) { time.Sleep(d) }

// Stop ends the node goroutines, drops what is queued and returns once they
// have exited; pushes from then on are dropped. It is idempotent. Not for use
// from a loop callback or while holding a node (a callback may be waiting for
// it).
func (rt *Runtime) Stop() {
	for _, n := range rt.nodes {
		if n != nil {
			n.mu.Lock()
			n.stopped = true
			n.held, n.free = eventq.Queue{}, eventq.Queue{}
			n.mu.Unlock()
			n.rouse()
		}
	}
	rt.running.Wait()
}
