package wall

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// launchedLoops builds a 10-node runtime with nothing armed on it, so a test
// owns everything that crosses its loops.
func launchedLoops(t testing.TB) (*Runtime, []msg.ProcID) {
	t.Helper()
	nodes := make([]msg.ProcID, 10)
	for i := range nodes {
		nodes[i] = msg.ProcID(10 + i)
	}
	rt := New(5, nodes)
	t.Cleanup(rt.Stop)
	return rt, nodes
}

// waitFor fails the test unless ch is signalled in time.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestInterconnectOrdering is the reliable channels' property: with several
// sources delivering concurrently to one destination at random delays (and
// duplicates right behind), each directed pair's callbacks run in submission
// order and none runs early.
func TestInterconnectOrdering(t *testing.T) {
	rt, nodes := launchedLoops(t)
	const perSource = 300
	dst, sources := nodes[0], nodes[1:6]
	type arrival struct {
		src   msg.ProcID
		seq   int
		early time.Duration // how far ahead of its earliest due instant it ran
	}
	var got []arrival // appended on dst's loop only
	var left sync.WaitGroup
	var submit sync.WaitGroup
	for _, src := range sources {
		submit.Add(1)
		go func(src msg.ProcID) {
			defer submit.Done()
			rng := rand.New(rand.NewSource(int64(src)))
			for seq := 0; seq < perSource; seq++ {
				delay := time.Duration(rng.Int63n(int64(2*time.Millisecond) + 1))
				copies := 1 + rng.Intn(5)/4 // a duplicate every fifth message or so
				notBefore := time.Now().Add(delay)
				for c := 0; c < copies; c++ {
					left.Add(1)
					rt.Deliver(src, dst, delay, func() {
						got = append(got, arrival{src: src, seq: seq, early: time.Until(notBefore)})
						left.Done()
					})
				}
			}
		}(src)
	}
	submit.Wait()
	left.Wait()
	last := make(map[msg.ProcID]int)
	for _, a := range got {
		if a.seq < last[a.src] {
			t.Fatalf("pair %d→%d: message %d ran after message %d", a.src, dst, a.seq, last[a.src])
		}
		last[a.src] = a.seq
		if a.early > 0 {
			t.Fatalf("pair %d→%d: message %d ran %v before its due instant", a.src, dst, a.seq, a.early)
		}
	}
	for _, src := range sources {
		if last[src] != perSource-1 {
			t.Fatalf("pair %d→%d: last message run is %d, want %d", src, dst, last[src], perSource-1)
		}
	}
}

// TestInterconnectOnlyOrdersAPair: FIFO holds a pair's later message behind
// its earlier one, but neither another source's delivery nor a Post to the
// same node waits for them.
func TestInterconnectOnlyOrdersAPair(t *testing.T) {
	rt, nodes := launchedLoops(t)
	dst, a, b := nodes[0], nodes[1], nodes[2]
	var order []string // appended on dst's loop only
	done := make(chan struct{})
	mark := func(s string) func() {
		return func() {
			if order = append(order, s); len(order) == 4 {
				close(done)
			}
		}
	}
	const hold = 40 * time.Millisecond
	began := time.Now()
	rt.Deliver(a, dst, hold, mark("a1"))
	rt.Deliver(a, dst, 0, mark("a2"))
	rt.Deliver(b, dst, 0, mark("b1"))
	rt.Post(dst, 0, mark("gossip"))
	inTime := time.Since(began) < hold // else a1 was due before the others were even submitted
	waitFor(t, done, "four callbacks")
	at := make(map[string]int)
	for i, s := range order {
		at[s] = i
	}
	if at["a2"] < at["a1"] {
		t.Fatalf("order = %v: a2 overtook a1 on the same pair", order)
	}
	if inTime && (at["b1"] > at["a1"] || at["gossip"] > at["a1"]) {
		t.Fatalf("order = %v: b1 and gossip should not wait for pair a", order)
	}
}

// TestLoopTimers: a timer cancelled before it is due never runs, cancelling
// one that ran is harmless, and a callback can re-arm (the TB checkpointer's
// perpetual cycle does exactly that).
func TestLoopTimers(t *testing.T) {
	rt, nodes := launchedLoops(t)
	id := nodes[4]
	const due = 20 * time.Millisecond
	var cancelledRan atomic.Bool
	began := time.Now()
	cancel := rt.After(id, due, func() { cancelledRan.Store(true) })
	rt.Cancel(cancel)
	inTime := time.Since(began) < due // else the test was too slow to cancel it
	rt.Cancel(cancel)

	ran := make(chan struct{})
	cancelRan := rt.After(id, 0, func() { close(ran) })
	waitFor(t, ran, "the zero-delay timer")
	rt.Cancel(cancelRan)

	chain := make(chan struct{})
	hops := 0 // touched on id's loop only
	var hop func()
	hop = func() {
		if hops++; hops == 3 {
			close(chain)
			return
		}
		rt.After(id, time.Millisecond, hop)
	}
	armed := time.Now()
	rt.After(id, time.Millisecond, hop)
	waitFor(t, chain, "the re-armed chain")
	if d := time.Since(armed); d < 3*time.Millisecond {
		t.Fatalf("three 1 ms hops took %v", d)
	}
	time.Sleep(2 * due)
	if inTime && cancelledRan.Load() {
		t.Fatal("cancelled timer ran")
	}
}

// TestLoopPushPopAllocatesNothing: past the caller's own closure, a delivery
// through a warm node loop costs no allocation (event records are recycled,
// the sleep timer is reused).
func TestLoopPushPopAllocatesNothing(t *testing.T) {
	rt, nodes := launchedLoops(t)
	ran := make(chan struct{}, 1)
	fn := func() { ran <- struct{}{} }
	roundTrip := func() {
		rt.Deliver(nodes[1], nodes[0], 0, fn)
		<-ran
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(1000, roundTrip); avg != 0 {
		t.Fatalf("deliver through a warm loop allocates %.2f/op, want 0", avg)
	}
}

// BenchmarkLiveInterconnect measures what one event costs on its way through
// a node loop at zero delay — push, wake-up or backlog pop, callback — for
// each of the runtime's three asynchronous paths.
func BenchmarkLiveInterconnect(b *testing.B) {
	for _, path := range []string{"deliver", "post", "after"} {
		b.Run(path, func(b *testing.B) {
			rt, nodes := launchedLoops(b)
			src, dst := nodes[1], nodes[0]
			var ran atomic.Int64
			done := make(chan struct{})
			fn := func() {
				if ran.Add(1) == int64(b.N) {
					close(done)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch path {
				case "deliver":
					rt.Deliver(src, dst, 0, fn)
				case "post":
					rt.Post(dst, 0, fn)
				case "after":
					rt.After(dst, 0, fn)
				}
			}
			<-done
		})
	}
}

// TestCallbacksHoldTheirNode: a timer's and a delivery's callback run holding
// the destination node — the loop takes it around the call — and a Post's
// runs holding nothing.
func TestCallbacksHoldTheirNode(t *testing.T) {
	rt, nodes := launchedLoops(t)
	id := nodes[2]
	held := make(chan bool, 1)
	probe := func() {
		free := rt.nodes[id].hold.TryLock()
		if free {
			rt.nodes[id].hold.Unlock()
		}
		held <- !free
	}
	for _, c := range []struct {
		path string
		push func()
		want bool
	}{
		{"After", func() { rt.After(id, 0, probe) }, true},
		{"Deliver", func() { rt.Deliver(nodes[0], id, 0, probe) }, true},
		{"Post", func() { rt.Post(id, 0, probe) }, false},
	} {
		c.push()
		select {
		case got := <-held:
			if got != c.want {
				t.Errorf("%s callback ran with the node held = %v, want %v", c.path, got, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s callback never ran", c.path)
		}
	}
	// Holding the node from outside keeps its callbacks out.
	rt.Hold(id)
	ran := make(chan struct{})
	rt.After(id, 0, func() { close(ran) })
	select {
	case <-ran:
		t.Fatal("a timer callback ran while the test held its node")
	case <-time.After(20 * time.Millisecond):
	}
	rt.Release(id)
	waitFor(t, ran, "the timer after Release")
}

// TestStopEndsTheLoops: Stop returns with every node goroutine gone, works
// twice, drops what was queued, and turns later pushes into no-ops whose
// cancel is harmless — twenty runtimes leave no goroutine and no pending
// timer behind.
func TestStopEndsTheLoops(t *testing.T) {
	before := goruntime.NumGoroutine()
	var ran atomic.Int32
	count := func() { ran.Add(1) }
	for i := 0; i < 20; i++ {
		rt := New(int64(i), []msg.ProcID{1, 2, 3})
		rt.After(1, 30*time.Millisecond, count)
		rt.Deliver(1, 2, 30*time.Millisecond, count)
		rt.Post(3, 30*time.Millisecond, count)
		rt.Stop()
		rt.Stop()
		rt.Cancel(rt.After(2, 0, count))
		rt.Deliver(1, 3, 0, count)
		rt.Post(1, 0, count)
		rt.Hold(2) // holds outlive the loops: post-stop reads still serialize
		rt.Release(2)
	}
	for end := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > before && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after twenty New/Stop cycles", before, after)
	}
	time.Sleep(60 * time.Millisecond)
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d callbacks ran on stopped runtimes", n)
	}
}

// TestStaleReadingNeverRunsEarly: the loop keeps its clock reading across
// iterations, so after a slow callback it holds one that is well behind true
// time. What came due meanwhile runs on a fresh reading — the stale one says
// "not yet", so the loop looks again — and what is due later still waits for
// its instant: no callback runs before it, however old the reading.
func TestStaleReadingNeverRunsEarly(t *testing.T) {
	rt, nodes := launchedLoops(t)
	id := nodes[0]
	const slow = 20 * time.Millisecond
	type firing struct {
		due   time.Duration // asked for, from the moment it was pushed
		early time.Duration // how far ahead of that instant it ran
	}
	var got []firing // appended on id's loop only
	done := make(chan struct{})
	delays := []time.Duration{0, 0, slow / 4, slow / 2, slow, 2 * slow, 3 * slow}
	push := func(i int, d time.Duration) {
		notBefore := time.Now().Add(d)
		fn := func() {
			if got = append(got, firing{due: d, early: time.Until(notBefore)}); len(got) == 3*len(delays) {
				close(done)
			}
		}
		switch i % 3 {
		case 0:
			rt.After(id, d, fn)
		case 1:
			rt.Deliver(nodes[1], id, d, fn)
		default:
			rt.Post(id, d, fn)
		}
	}
	busy := make(chan struct{})
	rt.Post(id, 0, func() {
		close(busy)
		time.Sleep(slow) // the reading the loop took before this call is now stale
	})
	waitFor(t, busy, "the slow callback to start")
	for i := 0; i < 3; i++ { // a backlog on each of the three paths, pushed while the loop is busy
		for _, d := range delays {
			push(i, d)
		}
	}
	waitFor(t, done, "every callback")
	for _, f := range got {
		if f.early > 0 {
			t.Errorf("a callback due in %v ran %v before its instant", f.due, f.early)
		}
	}
}

// TestPushAheadOfASleepingLoopWakesIt: an idle loop sleeps for an hour, one
// with a far timer until that timer; a push due before the loop's wake-up
// must cut the sleep short, whatever reading the wake-up was computed from.
func TestPushAheadOfASleepingLoopWakesIt(t *testing.T) {
	rt, nodes := launchedLoops(t)
	idle, timed := nodes[0], nodes[1]
	rt.After(timed, time.Hour, func() { t.Error("the far timer ran") })
	time.Sleep(5 * time.Millisecond) // both loops are asleep
	for _, id := range []msg.ProcID{idle, timed} {
		for _, path := range []string{"After", "Deliver", "Post"} {
			ran := make(chan struct{})
			fn := func() { close(ran) }
			switch path {
			case "After":
				rt.After(id, time.Millisecond, fn)
			case "Deliver":
				rt.Deliver(nodes[2], id, time.Millisecond, fn)
			case "Post":
				rt.Post(id, time.Millisecond, fn)
			}
			waitFor(t, ran, path+" on a sleeping loop")
			time.Sleep(2 * time.Millisecond) // asleep again before the next push
		}
	}
}
