package coord

import (
	"sync"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/seam/wall"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// world is an execution seam a test can let time pass on.
type world interface {
	seam.Runtime
	Wait(d time.Duration)
}

// worlds are the tree's two execution seams. late bounds how far past its due
// instant a world may run a callback: nothing on the simulator, scheduling
// noise (generously) on the wall clock.
var worlds = []struct {
	name string
	late time.Duration
	new  func(t *testing.T) world
}{
	{"sim", 0, func(*testing.T) world { return seam.NewSim(sim.New(1)) }},
	{"wall", 2 * time.Second, func(t *testing.T) world {
		rt := wall.New(1, msg.Processes())
		t.Cleanup(rt.Stop)
		return rt
	}},
}

// rig is one Interconnect over one world, recording what it delivers.
type rig struct {
	t    *testing.T
	w    world
	late time.Duration
	ic   *Interconnect
	inj  *chaos.Injector

	mu  sync.Mutex
	got []arrival
}

type arrival struct {
	m  msg.Message
	at vtime.Time
}

func newRig(t *testing.T, w world, late time.Duration, cfg NetConfig, spec *chaos.Spec) *rig {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, w: w, late: late}
	if spec != nil {
		inj, err := chaos.NewInjector(*spec)
		if err != nil {
			t.Fatal(err)
		}
		r.inj = inj
	}
	r.ic = NewInterconnect(w, 1, cfg, r.inj, func(m msg.Message) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.got = append(r.got, arrival{m: m, at: w.Now()})
	})
	return r
}

func (r *rig) arrivals() []arrival {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]arrival(nil), r.got...)
}

// await lets time pass until cond holds, failing the test after 5 s of it.
func (r *rig) await(what string, cond func() bool) {
	r.t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		r.w.Wait(time.Millisecond)
	}
	r.t.Fatalf("%s: still not so after 5s (counters %+v, %d delivered to the hook)", what, r.ic.Counters(), len(r.arrivals()))
}

func internal(from, to msg.ProcID, sn uint64) msg.Message {
	return msg.Message{Kind: msg.Internal, From: from, To: to, SN: sn, ChanSeq: sn}
}

// TestInterconnect is the one carrier's contract, run over both
// execution seams: what the simnet package's and live.realNet's suites checked of
// the two implementations it replaced. The chaos cases run on the simulator
// only — the injector stays nil on the live channel path (frame chaos
// requires TCP) — and assert exact instants.
func TestInterconnect(t *testing.T) {
	ms := time.Millisecond
	fixed := NetConfig{MinDelay: ms, MaxDelay: ms}
	cases := []struct {
		name  string
		cfg   NetConfig
		chaos *chaos.Spec // non-nil: simulator only
		run   func(t *testing.T, r *rig)
	}{
		{name: "delivery within bounds", cfg: NetConfig{MinDelay: 2 * ms, MaxDelay: 10 * ms}, run: func(t *testing.T, r *rig) {
			// Sends spaced wider than tmax, so FIFO never holds one back:
			// each delay is the carrier's own draw.
			procs := msg.Processes()
			sentAt := make(map[uint64]vtime.Time)
			const n = 30
			for sn := uint64(1); sn <= n; sn++ {
				from, to := procs[sn%3], procs[(sn+1+sn/3%2)%3]
				sentAt[sn] = r.w.Now()
				r.ic.Send(internal(from, to, sn))
				r.w.Wait(r.ic.cfg.MaxDelay + ms)
			}
			r.await("all delivered", func() bool { return len(r.arrivals()) == n })
			distinct := make(map[time.Duration]bool)
			for _, a := range r.arrivals() {
				d := a.at.Sub(sentAt[a.m.SN])
				if d < r.ic.cfg.MinDelay || d > r.ic.cfg.MaxDelay+r.late {
					t.Fatalf("SN %d took %v, outside [%v, %v]", a.m.SN, d, r.ic.cfg.MinDelay, r.ic.cfg.MaxDelay)
				}
				distinct[r.ic.delayFor(a.m)] = true
			}
			if len(distinct) < n/2 {
				t.Fatalf("%d messages drew only %d distinct delays", n, len(distinct))
			}
		}},
		{name: "zero-gap burst keeps FIFO", cfg: NetConfig{MinDelay: 200 * time.Microsecond, MaxDelay: 2 * ms}, run: func(t *testing.T, r *rig) {
			// What a recovery's re-send of a saved unacknowledged set is. A
			// receiver accepts a ChanSeq gap, so a message overtaken in
			// flight would be discarded as a duplicate.
			const burst = 400
			for sn := uint64(1); sn <= burst; sn++ {
				r.ic.Send(internal(msg.P1Act, msg.P2, sn))
			}
			r.await("burst delivered", func() bool { return len(r.arrivals()) == burst })
			for i, a := range r.arrivals() {
				if a.m.SN != uint64(i+1) {
					t.Fatalf("delivery %d is SN %d: the channel reordered the burst", i+1, a.m.SN)
				}
			}
		}},
		{name: "device message leaves the system", cfg: fixed, run: func(t *testing.T, r *rig) {
			r.ic.Send(msg.Message{Kind: msg.External, From: msg.P1Act, To: msg.Device, SN: 1})
			r.w.Wait(5 * ms)
			if st := r.ic.Counters(); st != (NetStats{Sent: 1}) || len(r.arrivals()) != 0 {
				t.Fatalf("counters %+v with %d deliveries, want only Sent = 1", st, len(r.arrivals()))
			}
		}},
		{name: "down node drops arrivals", cfg: NetConfig{MinDelay: 20 * ms, MaxDelay: 20 * ms}, run: func(t *testing.T, r *rig) {
			r.ic.Send(internal(msg.P1Act, msg.P2, 1))
			r.ic.Down(msg.P2)
			r.await("dropped at the down node", func() bool { return r.ic.Counters().DroppedDown == 1 })
			if n := len(r.arrivals()); n != 0 {
				t.Fatalf("%d messages delivered to a down node", n)
			}
			if err := r.ic.Up(msg.P2); err != nil {
				t.Fatal(err)
			}
			r.ic.Send(internal(msg.P1Act, msg.P2, 2))
			r.await("delivered after repair", func() bool { return len(r.arrivals()) == 1 })
			if st := r.ic.Counters(); st != (NetStats{Sent: 2, Delivered: 1, DroppedDown: 1}) {
				t.Fatalf("counters %+v", st)
			}
		}},
		{name: "down node suppresses sends", cfg: fixed, run: func(t *testing.T, r *rig) {
			r.ic.Down(msg.P1Act)
			r.ic.Send(internal(msg.P1Act, msg.P2, 1))
			r.w.Wait(5 * ms)
			if st := r.ic.Counters(); st != (NetStats{}) || len(r.arrivals()) != 0 {
				t.Fatalf("counters %+v with %d deliveries, want nothing", st, len(r.arrivals()))
			}
		}},
		{name: "flush discards in transit", cfg: NetConfig{MinDelay: 20 * ms, MaxDelay: 20 * ms}, run: func(t *testing.T, r *rig) {
			r.ic.Send(internal(msg.P1Act, msg.P2, 1))
			r.ic.Send(internal(msg.P2, msg.P1Sdw, 1))
			r.ic.Flush()
			r.await("both flushed", func() bool { return r.ic.Counters().Flushed == 2 })
			if n := len(r.arrivals()); n != 0 {
				t.Fatalf("%d flushed messages were delivered", n)
			}
			// Traffic after the flush flows normally.
			r.ic.Send(internal(msg.P1Act, msg.P2, 2))
			r.await("post-flush delivery", func() bool { return len(r.arrivals()) == 1 })
			if st := r.ic.Counters(); st != (NetStats{Sent: 3, Delivered: 1, Flushed: 2}) {
				t.Fatalf("counters %+v", st)
			}
		}},
		{name: "chaos drop adds retransmit delay", cfg: fixed, chaos: &chaos.Spec{Seed: 1, Drop: 1}, run: func(t *testing.T, r *rig) {
			for sn := uint64(0); sn < 10; sn++ {
				r.ic.Send(internal(msg.P1Act, msg.P2, sn))
			}
			r.w.Wait(time.Second)
			at := r.arrivals()
			if len(at) != 10 {
				t.Fatalf("delivered %d, want 10 (drops must retransmit, not lose)", len(at))
			}
			// All sent at t=0 on one channel: each pays the base delay plus
			// the retransmit delay, and FIFO spaces the arrivals by 1ns.
			for i, a := range at {
				if want := ms + chaos.RetransmitDelay + time.Duration(i); a.at.Sub(vtime.Zero) != want {
					t.Fatalf("dropped-frame delivery %d at +%v, want +%v", i, a.at.Sub(vtime.Zero), want)
				}
			}
			if st := r.inj.Stats(); st.Dropped != 10 {
				t.Fatalf("Dropped = %d, want 10", st.Dropped)
			}
		}},
		{name: "chaos duplicate delivers twice", cfg: fixed, chaos: &chaos.Spec{Seed: 1, Duplicate: 1}, run: func(t *testing.T, r *rig) {
			for sn := uint64(0); sn < 5; sn++ {
				r.ic.Send(internal(msg.P1Act, msg.P2, sn))
			}
			r.w.Wait(time.Second)
			at := r.arrivals()
			if len(at) != 10 {
				t.Fatalf("delivered %d copies, want 10 (each frame twice)", len(at))
			}
			for i, a := range at {
				if a.m.SN != uint64(i/2) || a.at.Sub(vtime.Zero) != ms+time.Duration(i) {
					t.Fatalf("copy %d is SN %d at +%v, want SN %d at +%v", i, a.m.SN, a.at.Sub(vtime.Zero), i/2, ms+time.Duration(i))
				}
			}
			if st := r.inj.Stats(); st.Duplicated != 5 {
				t.Fatalf("Duplicated = %d, want 5", st.Duplicated)
			}
			if st := r.ic.Counters(); st != (NetStats{Sent: 5, Delivered: 10}) {
				t.Fatalf("counters %+v, want 5 sent and 10 delivered", st)
			}
		}},
		{name: "chaos partition holds until heal", cfg: fixed, chaos: &chaos.Spec{Seed: 1, Partitions: []chaos.Partition{
			{A: msg.P1Act, B: msg.P2, Bidirectional: true, Start: 0, End: 50 * ms},
		}}, run: func(t *testing.T, r *rig) {
			r.ic.Send(internal(msg.P1Act, msg.P2, 1))
			r.w.Wait(time.Second)
			at := r.arrivals()
			// Mirrors the live TCP retry loop: out the window, then one
			// retransmission timeout.
			if want := 50*ms + chaos.RetransmitDelay + ms; len(at) != 1 || at[0].at.Sub(vtime.Zero) != want {
				t.Fatalf("partitioned deliveries %+v, want one at +%v", at, want)
			}
		}},
		{name: "chaos corrupt is accounting only", cfg: fixed, chaos: &chaos.Spec{Seed: 1, Corrupt: 1}, run: func(t *testing.T, r *rig) {
			for sn := uint64(0); sn < 8; sn++ {
				r.ic.Send(internal(msg.P1Act, msg.P2, sn))
			}
			r.w.Wait(time.Second)
			at := r.arrivals()
			if len(at) != 8 {
				t.Fatalf("delivered %d, want 8", len(at))
			}
			for i, a := range at {
				if want := ms + time.Duration(i); a.at.Sub(vtime.Zero) != want {
					t.Fatalf("corrupt-frame delivery %d at +%v, want +%v (no delay cost)", i, a.at.Sub(vtime.Zero), want)
				}
			}
			if st := r.inj.Stats(); st.Corrupted != 8 {
				t.Fatalf("Corrupted = %d, want 8", st.Corrupted)
			}
		}},
		{name: "chaos preserves FIFO", cfg: NetConfig{MinDelay: ms, MaxDelay: 2 * ms}, chaos: &chaos.Spec{
			Seed: 3, Drop: 0.3, Duplicate: 0.3, MaxExtraDelay: 5 * ms,
			Partitions: []chaos.Partition{
				{A: msg.P1Act, B: msg.P2, Bidirectional: true, Start: 5 * ms, End: 15 * ms},
			},
		}, run: func(t *testing.T, r *rig) {
			for sn := uint64(0); sn < 200; sn++ {
				r.ic.Send(internal(msg.P1Act, msg.P2, sn))
				r.w.Wait(100 * time.Microsecond) // the burst straddles the partition window
			}
			r.w.Wait(time.Second)
			// Duplicates repeat an SN; the high-water mark may only ever
			// move forward by one.
			at := r.arrivals()
			if len(at) == 0 || at[0].m.SN != 0 {
				t.Fatalf("first of %d deliveries is not SN 0", len(at))
			}
			var hw uint64
			for _, a := range at[1:] {
				if a.m.SN > hw+1 {
					t.Fatalf("SN %d delivered while high-water mark was %d: chaos reordered the channel", a.m.SN, hw)
				}
				hw = max(hw, a.m.SN)
			}
			if hw != 199 {
				t.Fatalf("high-water mark %d, want 199 (every frame delivered)", hw)
			}
		}},
	}
	for _, wd := range worlds {
		t.Run(wd.name, func(t *testing.T) {
			for _, tc := range cases {
				if tc.chaos != nil && wd.name != "sim" {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					tc.run(t, newRig(t, wd.new(t), wd.late, tc.cfg, tc.chaos))
				})
			}
		})
	}
}

func TestNetConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    NetConfig
		wantErr bool
	}{
		{name: "ok", give: NetConfig{MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}},
		{name: "equal bounds", give: NetConfig{MinDelay: time.Millisecond, MaxDelay: time.Millisecond}},
		{name: "zero", give: NetConfig{}},
		{name: "inverted", give: NetConfig{MinDelay: 2, MaxDelay: 1}, wantErr: true},
		{name: "negative", give: NetConfig{MinDelay: -1, MaxDelay: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.give.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

// simRig is the simulator's runtime as NewSystem builds it, delivering to a
// recorder, plus one slow and one fast message of the P1act→P2 channel.
func simRig(t *testing.T) (rt *simRuntime, got *[]arrival, slow, fast msg.Message) {
	t.Helper()
	rt = &simRuntime{Sim: seam.NewSim(sim.New(1))}
	got = new([]arrival)
	cfg := NetConfig{MinDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}
	rt.Interconnect = NewInterconnect(rt.Sim, 1, cfg, nil, func(m msg.Message) {
		*got = append(*got, arrival{m: m, at: rt.Now()})
	})
	for sn := uint64(1); slow.SN == 0 || fast.SN == 0; sn++ {
		m := internal(msg.P1Act, msg.P2, sn)
		switch d := rt.delayFor(m); {
		case d > 80*time.Millisecond && slow.SN == 0:
			slow = m
		case d < 20*time.Millisecond && fast.SN == 0:
			fast = m
		}
	}
	return rt, got, slow, fast
}

// TestSimRecoverKeepsChannelOrder: a system-wide procedure that flushes
// nothing (the timer resync, a failed commit) runs between two sends on one
// channel; the second, though faster, must not overtake the first — the
// receiver would discard the overtaken one as a duplicate.
func TestSimRecoverKeepsChannelOrder(t *testing.T) {
	rt, got, slow, fast := simRig(t)
	rt.Send(slow)
	rt.Recover(func() {})
	rt.Send(fast)
	rt.Wait(time.Second)
	if len(*got) != 2 || (*got)[0].m.SN != slow.SN || (*got)[1].m.SN != fast.SN {
		t.Fatalf("deliveries %+v, want SN %d then SN %d", *got, slow.SN, fast.SN)
	}
}

// TestSimFlushForgetsChannelOrder: what recovery sends after its flush does
// not queue behind the traffic the flush discarded.
func TestSimFlushForgetsChannelOrder(t *testing.T) {
	rt, got, slow, fast := simRig(t)
	rt.Send(slow)
	rt.Flush()
	rt.Send(fast)
	rt.Wait(time.Second)
	if len(*got) != 1 || (*got)[0].m.SN != fast.SN || (*got)[0].at.Sub(vtime.Zero) != rt.delayFor(fast) {
		t.Fatalf("deliveries %+v, want only SN %d at +%v", *got, fast.SN, rt.delayFor(fast))
	}
	if st := rt.Counters(); st != (NetStats{Sent: 2, Delivered: 1, Flushed: 1}) {
		t.Fatalf("counters %+v", st)
	}
}
