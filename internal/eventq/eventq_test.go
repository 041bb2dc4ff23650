package eventq

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/synergy-ft/synergy/internal/vtime"
)

func TestPopOrderedByTime(t *testing.T) {
	var q Queue
	q.Push(vtime.FromSeconds(3), nil)
	q.Push(vtime.FromSeconds(1), nil)
	q.Push(vtime.FromSeconds(2), nil)

	var got []vtime.Time
	for at, _, ok := q.Pop(); ok; at, _, ok = q.Pop() {
		got = append(got, at)
	}
	want := []vtime.Time{vtime.FromSeconds(1), vtime.FromSeconds(2), vtime.FromSeconds(3)}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var q Queue
	var order []int
	at := vtime.FromSeconds(1)
	for i := 0; i < 5; i++ {
		i := i
		q.Push(at, func() { order = append(order, i) })
	}
	for _, fn, ok := q.Pop(); ok; _, fn, ok = q.Pop() {
		fn()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	id1 := q.Push(vtime.FromSeconds(1), nil)
	q.Push(vtime.FromSeconds(2), nil)
	if !q.Cancel(id1) {
		t.Fatal("Cancel returned false for live event")
	}
	if q.Cancel(id1) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	at, _, ok := q.Pop()
	if !ok || at != vtime.FromSeconds(2) {
		t.Fatalf("Pop = %v,%v, want event at 2s", at, ok)
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestCancelUnknownID(t *testing.T) {
	var q Queue
	if q.Cancel(123) {
		t.Fatal("Cancel of unknown ID should return false")
	}
}

func TestPeekTimeSkipsCancelled(t *testing.T) {
	var q Queue
	id := q.Push(vtime.FromSeconds(1), nil)
	q.Push(vtime.FromSeconds(5), nil)
	q.Cancel(id)
	at, ok := q.PeekTime()
	if !ok || at != vtime.FromSeconds(5) {
		t.Fatalf("PeekTime = %v,%v, want 5s,true", at, ok)
	}
}

func TestPeekTimeEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue should report !ok")
	}
}

// Property: popping returns events in nondecreasing time order regardless of
// insertion order.
func TestPopMonotoneProperty(t *testing.T) {
	f := func(times []uint32) bool {
		var q Queue
		for _, v := range times {
			q.Push(vtime.Time(v), nil)
		}
		prev := vtime.Time(-1)
		for at, _, ok := q.Pop(); ok; at, _, ok = q.Pop() {
			if at < prev {
				return false
			}
			prev = at
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with random cancellations, the live count matches and the
// surviving events come out sorted.
func TestCancelConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		n := 1 + rng.Intn(40)
		ids := make([]ID, 0, n)
		times := make(map[ID]vtime.Time, n)
		for i := 0; i < n; i++ {
			at := vtime.Time(rng.Intn(1000))
			id := q.Push(at, nil)
			ids = append(ids, id)
			times[id] = at
		}
		var surviving []vtime.Time
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				q.Cancel(id)
			} else {
				surviving = append(surviving, times[id])
			}
		}
		if q.Len() != len(surviving) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(surviving))
		}
		sort.Slice(surviving, func(i, j int) bool { return surviving[i] < surviving[j] })
		for i := 0; ; i++ {
			at, _, ok := q.Pop()
			if !ok {
				if i != len(surviving) {
					t.Fatalf("popped %d events, want %d", i, len(surviving))
				}
				break
			}
			if at != surviving[i] {
				t.Fatalf("pop[%d] = %v, want %v", i, at, surviving[i])
			}
		}
	}
}

func TestCompactionBoundsHeapGrowth(t *testing.T) {
	var q Queue
	// Schedule-and-cancel churn far beyond the compaction threshold: the
	// heap must not retain the cancelled entries.
	for i := 0; i < 10_000; i++ {
		id := q.Push(vtime.FromSeconds(1e9), nil)
		if !q.Cancel(id) {
			t.Fatal("cancel failed")
		}
	}
	if q.Len() != 0 {
		t.Fatalf("live = %d", q.Len())
	}
	if got := len(q.h); got > minCompact {
		t.Fatalf("heap retained %d cancelled entries", got)
	}
	// The queue still works after heavy compaction.
	q.Push(vtime.FromSeconds(2), nil)
	q.Push(vtime.FromSeconds(1), nil)
	if at, _, ok := q.Pop(); !ok || at != vtime.FromSeconds(1) {
		t.Fatalf("pop after compaction = %v,%v", at, ok)
	}
}

// Regression for unbounded growth under heavy Cancel use while live timers
// are outstanding (the TB protocol's steady state: long-lived checkpoint
// timers plus continuous arm/cancel churn of short ones). The heap must stay
// within 2× the live population no matter how many cancels pass through.
func TestCancelHeavyChurnBoundedWithLiveEvents(t *testing.T) {
	var q Queue
	const live = 100
	for i := 0; i < live; i++ {
		q.Push(vtime.FromSeconds(float64(1000+i)), nil)
	}
	for i := 0; i < 50_000; i++ {
		id := q.Push(vtime.FromSeconds(float64(i%977)), nil)
		if !q.Cancel(id) {
			t.Fatal("cancel failed")
		}
		if q.Len() != live {
			t.Fatalf("live = %d, want %d", q.Len(), live)
		}
		if len(q.h) > 2*live+minCompact {
			t.Fatalf("heap grew to %d entries with %d live after %d cancels", len(q.h), live, i+1)
		}
	}
	// Every long-lived timer survives the churn, in order.
	for i := 0; i < live; i++ {
		at, _, ok := q.Pop()
		if !ok || at != vtime.FromSeconds(float64(1000+i)) {
			t.Fatalf("survivor %d = %v,%v", i, at, ok)
		}
	}
}

// Steady-state scheduling is allocation-free: once the heap slice has grown
// to its working size, Push/Pop and Push/Cancel cycles touch no new heap
// memory.
func TestSteadyStateAllocationFree(t *testing.T) {
	var q Queue
	q.Push(vtime.FromSeconds(1), nil) // grow the slice once
	q.Pop()
	if avg := testing.AllocsPerRun(1000, func() {
		q.Push(vtime.FromSeconds(1), nil)
		q.Pop()
	}); avg != 0 {
		t.Fatalf("push/pop allocates %.2f objects per op in steady state", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		id := q.Push(vtime.FromSeconds(1), nil)
		q.Cancel(id)
	}); avg != 0 {
		t.Fatalf("push/cancel allocates %.2f objects per op in steady state", avg)
	}
}

// refQueue is the model the heap is held to: the pending events in one slice
// kept sorted by (at, id), cancellation an eager removal.
type refQueue struct {
	evs    []refEvent
	nextID ID
}

type refEvent struct {
	at  vtime.Time
	id  ID
	tag int
}

func (r *refQueue) push(at vtime.Time, tag int) ID {
	r.nextID++
	i := sort.Search(len(r.evs), func(i int) bool { return r.evs[i].at > at }) // after every equal instant
	r.evs = slices.Insert(r.evs, i, refEvent{at, r.nextID, tag})
	return r.nextID
}

func (r *refQueue) pop() (refEvent, bool) {
	if len(r.evs) == 0 {
		return refEvent{}, false
	}
	ev := r.evs[0]
	r.evs = r.evs[1:]
	return ev, true
}

func (r *refQueue) cancel(id ID) bool {
	i := slices.IndexFunc(r.evs, func(e refEvent) bool { return e.id == id })
	if i < 0 {
		return false
	}
	r.evs = slices.Delete(r.evs, i, i+1)
	return true
}

// Random Push/Pop/PeekTime/Cancel programs against the sorted-slice model:
// the same pop sequence (instant and callback), Len and Cancel results after
// every operation. Instants come from a narrow range so most collide; the
// phases cover growth, cancel churn far past the compaction threshold (live
// and already-fired and already-cancelled IDs alike), and the drain.
func TestHeapMatchesSortedSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref refQueue
		var ids []ID // every ID ever issued
		popped := -1
		push := func(step int) {
			at := vtime.Time(rng.Intn(12))
			tag := len(ids)
			got, want := q.Push(at, func() { popped = tag }), ref.push(at, tag)
			if got != want {
				t.Fatalf("seed %d step %d: Push returned ID %d, model %d", seed, step, got, want)
			}
			ids = append(ids, got)
		}
		pop := func(step int) {
			want, wantOK := ref.pop()
			at, fn, ok := q.Pop()
			if ok != wantOK || (ok && at != want.at) {
				t.Fatalf("seed %d step %d: Pop = (%v, %v), model (%v, %v)", seed, step, at, ok, want.at, wantOK)
			}
			if ok {
				if fn(); popped != want.tag {
					t.Fatalf("seed %d step %d: Pop at %v returned push #%d, model #%d", seed, step, at, popped, want.tag)
				}
			}
		}
		for step := 0; step < 3000; step++ {
			phase := step / 500 // grow, churn, drain, grow, churn, drain
			switch op := rng.Intn(10); {
			case len(ids) == 0 || (phase%3 == 0 && op < 6) || (phase%3 == 1 && op < 4):
				push(step)
			case (phase%3 == 1 && op < 9) || op < 8:
				id := ids[rng.Intn(len(ids))]
				if phase%3 == 1 && rng.Intn(3) > 0 {
					id = ids[len(ids)-1-rng.Intn(min(len(ids), 8))] // a recent one: likely still live
				}
				if got, want := q.Cancel(id), ref.cancel(id); got != want {
					t.Fatalf("seed %d step %d: Cancel(%d) = %v, model %v", seed, step, id, got, want)
				}
				if rng.Intn(4) == 0 {
					pop(step) // cancel-then-pop: the cancelled head is skipped
				}
			default:
				pop(step)
			}
			if q.Len() != len(ref.evs) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, q.Len(), len(ref.evs))
			}
			at, ok := q.PeekTime()
			if ok != (len(ref.evs) > 0) || (ok && at != ref.evs[0].at) {
				t.Fatalf("seed %d step %d: PeekTime = (%v, %v) with %d pending in the model", seed, step, at, ok, len(ref.evs))
			}
			if len(q.h) > 2*q.Len()+minCompact {
				t.Fatalf("seed %d step %d: %d heap entries for %d live", seed, step, len(q.h), q.Len())
			}
		}
		for len(ref.evs) > 0 {
			pop(-1)
		}
		if _, _, ok := q.Pop(); ok || q.Len() != 0 {
			t.Fatalf("seed %d: queue not empty after the model drained", seed)
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	q.Push(0, nil) // grow the slice once so the numbers show steady state
	q.Pop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(vtime.Time(i), nil)
		q.Pop()
	}
}

func BenchmarkPushCancel(b *testing.B) {
	var q Queue
	// Warm past the compaction threshold so the heap's backing array reaches
	// steady state before measuring.
	for i := 0; i < 2*minCompact; i++ {
		q.Cancel(q.Push(0, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := q.Push(vtime.Time(i), nil)
		q.Cancel(id)
	}
}
