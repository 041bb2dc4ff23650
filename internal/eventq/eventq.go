// Package eventq implements the priority queue at the heart of the
// discrete-event simulator: events ordered by virtual firing time, with a
// monotonically increasing sequence number as a deterministic tie-breaker so
// that simultaneous events fire in scheduling order.
//
// The queue is a hot path — every message delivery, timer, and workload tick
// of every simulated second passes through it, and every node loop of the
// wall-clock runtime sleeps on one — so it is a 4-ary heap of event values in
// one slice: no record per event, no interface call per comparison, and
// steady-state Push/Pop performs no heap allocation. Lazily-cancelled entries
// are compacted out as soon as they outnumber the live ones, bounding memory
// under the TB protocol's continuous arm/cancel timer churn.
//
// Pop order is a function of the pushes alone, not of the heap's shape: IDs
// are unique, so (at, id) is a strict total order and the minimum under it is
// one particular event whatever the arity, the sift strategy or the moment a
// compaction rebuilds the slice. Simulator transcripts depend on nothing else.
package eventq

import "github.com/synergy-ft/synergy/internal/vtime"

// ID identifies a scheduled event so it can be cancelled.
type ID uint64

// event is one scheduled callback, stored by value in the heap slice.
type event struct {
	at        vtime.Time
	id        ID
	fn        func()
	cancelled bool
}

// before is the heap order: strictly earlier instant, then scheduling order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.id < o.id)
}

// arity is the heap's fan-out: four 32-byte children share two cache lines,
// and the tree is half as deep as a binary one.
const arity = 4

// minCompact is the heap size below which compaction is never triggered;
// tiny heaps are cheaper to pop through than to rebuild.
const minCompact = 16

// Queue is a min-heap of events keyed by (At, scheduling order). The zero
// value is ready to use.
type Queue struct {
	h      []event
	nextID ID
	live   int
}

// Push schedules fn to run at instant at and returns an ID usable with Cancel.
func (q *Queue) Push(at vtime.Time, fn func()) ID {
	q.nextID++
	q.h = append(q.h, event{})
	q.up(len(q.h)-1, event{at: at, id: q.nextID, fn: fn})
	q.live++
	return q.nextID
}

// Pop removes the earliest live event and returns its instant and callback.
// The third result is false if the queue is empty. Cancelled events are
// discarded transparently.
func (q *Queue) Pop() (at vtime.Time, fn func(), ok bool) {
	for len(q.h) > 0 {
		ev := q.removeMin()
		if ev.cancelled {
			continue
		}
		q.live--
		return ev.at, ev.fn, true
	}
	return 0, nil, false
}

// PeekTime returns the firing instant of the earliest live event. The second
// result is false if the queue is empty.
func (q *Queue) PeekTime() (vtime.Time, bool) {
	for len(q.h) > 0 {
		if ev := &q.h[0]; !ev.cancelled {
			return ev.at, true
		}
		q.removeMin()
	}
	return 0, false
}

// Cancel marks the event with the given ID as cancelled. It returns false if
// no live event has that ID. Cancellation is O(n) in the worst case;
// cancelled entries are discarded lazily on Pop/PeekTime, and the heap is
// rebuilt without them the moment they outnumber the live entries, so heavy
// arm/cancel churn cannot grow the heap beyond twice its live size.
func (q *Queue) Cancel(id ID) bool {
	for i := range q.h {
		if ev := &q.h[i]; ev.id == id && !ev.cancelled {
			ev.cancelled = true
			q.live--
			if len(q.h) >= minCompact && len(q.h)-q.live > q.live {
				q.compact()
			}
			return true
		}
	}
	return false
}

// compact rebuilds the heap without cancelled entries.
func (q *Queue) compact() {
	kept := q.h[:0]
	for i := range q.h {
		if !q.h[i].cancelled {
			kept = append(kept, q.h[i])
		}
	}
	// Clear the tail so dropped slots do not pin dead closures via the
	// backing array.
	clear(q.h[len(kept):])
	q.h = kept
	for i := (len(kept) - 2) / arity; i >= 0 && len(kept) > 1; i-- { // from the last parent
		q.down(i, kept[i])
	}
}

// removeMin takes the root out of the heap (which must not be empty).
func (q *Queue) removeMin() event {
	top := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = event{} // the slot stays in the backing array: drop its closure
	q.h = q.h[:n]
	if n > 0 {
		q.down(0, last)
	}
	return top
}

// up places ev at the hole i or above, moving later ancestors down into it.
func (q *Queue) up(i int, ev event) {
	h := q.h
	for i > 0 {
		parent := (i - 1) / arity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// down places ev at the hole i or below, moving earlier children up into it.
func (q *Queue) down(i int, ev event) {
	h := q.h
	for {
		first := arity*i + 1
		if first >= len(h) {
			break
		}
		least := first
		for c := first + 1; c < min(first+arity, len(h)); c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&ev) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ev
}

// Len returns the number of live (non-cancelled) events.
func (q *Queue) Len() int { return q.live }
