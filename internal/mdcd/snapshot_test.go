package mdcd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// tbEnv is a fakeEnv whose sends also enter a TB checkpointer's
// unacknowledged set, as a coord node's do. Its Record, a traced process's
// recorder, hands the trace to onRecord alone (nil drops it).
type tbEnv struct {
	*fakeEnv
	cp       *tb.Checkpointer
	onRecord func(trace.Event)
}

func (e *tbEnv) Send(m msg.Message) {
	e.cp.OnSend(m)
	e.fakeEnv.Send(m)
}

func (e *tbEnv) Record(ev trace.Event) {
	if e.onRecord != nil {
		e.onRecord(ev)
	}
}

// newTBProcess builds a process over a tbEnv, its checkpointer wired as
// coord wires it, recording through the env when traced. The checkpointer's
// timers never start, so it needs no host or runtime.
func newTBProcess(t testing.TB, id msg.ProcID, role Role, cfg Config, traced bool) (*Process, *tbEnv) {
	t.Helper()
	tcfg := tb.Config{
		Variant:  tb.Adapted,
		Interval: time.Second,
		Clock:    vtime.ClockConfig{MaxDeviation: time.Millisecond, DriftRate: 1e-5},
		MinDelay: time.Millisecond,
		MaxDelay: 10 * time.Millisecond,
	}
	cp, err := tb.NewCheckpointer(id, tcfg, vtime.NewClock(tcfg.Clock, nil), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := &tbEnv{fakeEnv: newFakeEnv(), cp: cp}
	var rec tb.Recorder
	if traced {
		rec = env.Record
	}
	p := NewProcess(id, role, cfg, env, rec)
	p.Unacked = cp
	return p, env
}

// scriptRoles are the processes the scripted tests drive: every role, the
// peer under both protocol variants, and the shadow through its takeover.
var scriptRoles = []struct {
	name string
	id   msg.ProcID
	role Role
	cfg  Config
}{
	{"active", msg.P1Act, RoleActive, modifiedCfg(at.Perfect())},
	{"shadow", msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect())},
	{"peer", msg.P2, RolePeer, modifiedCfg(at.Perfect())},
	{"peer-original", msg.P2, RolePeer, originalCfg(at.Perfect())},
}

type scriptStep struct {
	name string
	do   func()
}

// script is the step sequence the scripted tests drive p through: sends,
// acks, contaminating receptions, validations, log reclaims, a rollback with
// the TB set's drop, adopt and reconcile, and a takeover (which only the
// shadow takes).
func script(t testing.TB, p *Process, env *tbEnv) []scriptStep {
	origin, validator := msg.P2, msg.P2
	if p.ID() == msg.P2 {
		origin, validator = msg.P1Act, msg.P1Act
	}
	var seq uint64
	receive := func(dirty bool) {
		seq++
		p.Receive(internalFrom(origin, seq, seq, dirty))
	}
	validate := func(validSN uint64) {
		p.Receive(msg.Message{Kind: msg.PassedAT, From: validator, ValidSN: validSN})
	}
	emit := func() {
		p.EmitInternal()
		p.EmitExternal()
		p.EmitInternal()
	}
	// ack acknowledges the oldest message still in the TB set, as its
	// receiver would.
	ack := func() {
		var first msg.Message
		found := false
		env.cp.EachUnacked(func(m msg.Message) {
			if !found {
				first, found = m, true
			}
		})
		if found {
			env.cp.OnAck(msg.Message{Kind: msg.Ack, From: first.To, AckSN: first.ChanSeq})
		}
	}
	return []scriptStep{
		{"clean reception", func() { receive(false) }},
		{"sends", emit},
		{"contaminating reception", func() { receive(true) }},
		{"sends while dirty", emit},
		{"acks", func() { ack(); ack() }},
		{"reception while dirty", func() { receive(true) }},
		{"partial validation", func() { validate(2) }},
		{"sends after validation", emit},
		{"full validation", func() { validate(1 << 20) }},
		{"second contamination", func() { receive(true) }},
		{"sends after it", emit},
		{"ack after it", ack},
		{"rollback", func() {
			env.cp.DropUnacked(msg.P1Act)
			rolled, restored, err := p.RecoverSoftware()
			if err != nil {
				t.Fatal(err)
			}
			if rolled {
				env.cp.AdoptUnacked(restored.Unacked)
				env.cp.ReconcileUnacked(p.SentTo)
			}
		}},
		{"sends after rollback", emit},
		{"third contamination", func() { receive(true) }},
		{"reclaim", func() { validate(p.msgSN - 1) }},
		{"sends after reclaim", emit},
		{"takeover", p.TakeOver},
		{"sends after takeover", emit},
		{"reception after takeover", func() { receive(true) }},
		{"sends and acks after takeover", func() { emit(); ack() }},
	}
}

// TestVolatileCheckpointOutlivesTheProcess: the volatile slot keeps a
// checkpoint's contents by value and builds the record when it is read, with
// the unacknowledged set marked on the TB log (the shadow's suppressed view
// while it suppresses). For every role, the checkpoint read from the slot
// after each step of the script must equal an eager copy made when it was
// taken, and every record read must still equal, at the end, a deep copy
// made when it was read: the caller owns it.
func TestVolatileCheckpointOutlivesTheProcess(t *testing.T) {
	for _, rc := range scriptRoles {
		t.Run(rc.name, func(t *testing.T) {
			p, env := newTBProcess(t, rc.id, rc.role, rc.cfg, true)
			// eager is what the slot must read as: the stable Snapshot
			// (which copies the unacknowledged set) made at the instant
			// takeVolatile records its checkpoint, before anything else
			// moves.
			var eager *checkpoint.Checkpoint
			taken := 0
			env.onRecord = func(ev trace.Event) {
				if ev.Kind == trace.CheckpointTaken {
					eager = p.Snapshot(ev.Ckpt)
					if rc.role == RoleShadow && !p.Promoted() && !slices.Equal(eager.Unacked, CopySuppressedPending(p)) {
						t.Fatalf("suppressed view %v, copying model %v", eager.Unacked, CopySuppressedPending(p))
					}
					taken++
				}
			}
			type read struct {
				step     string
				c, model *checkpoint.Checkpoint
			}
			var reads []read
			for _, s := range script(t, p, env) {
				s.do()
				c, ok := p.Volatile.Latest()
				if ok != (eager != nil) {
					t.Fatalf("after %q: the slot reports %v with %d checkpoints taken", s.name, ok, taken)
				}
				if !ok {
					continue
				}
				if !reflect.DeepEqual(c, eager) {
					t.Fatalf("after %q: the slot reads\n %+v\nbut was taken as\n %+v", s.name, c, eager)
				}
				reads = append(reads, read{s.name, c, c.Clone()})
			}
			if taken < 2 {
				t.Fatalf("the script took %d volatile checkpoints, want at least 2", taken)
			}
			for _, r := range reads {
				if !reflect.DeepEqual(r.c, r.model) {
					t.Errorf("checkpoint read after %q changed afterwards:\n got %+v\nwant %+v", r.step, r.c, r.model)
				}
			}
		})
	}
}

// TestTracingChangesNothingButTheTrace: every role runs the script twice in
// lock-step, once with a recorder and once without. After each step the two
// agree on what they sent, their protocol state (bits, counters, logs, the
// application state) and what their volatile slots and unacknowledged sets
// read as. The traced run's events hash to the values captured when every
// record site built its event unconditionally (at d19f961); never edit them:
// a changed hash is a changed trace.
func TestTracingChangesNothingButTheTrace(t *testing.T) {
	golden := map[string]struct {
		events int
		sha    string
	}{
		"active":        {77, "d1b148dc56bfb5c4698028b1c60bf09c511dd84b3007a0347ae05b09aaf39dbb"},
		"shadow":        {52, "2a77d625ee5c54a8f9c218ee1ae01e7ae78ff64488f0ab53777c991b264179e1"},
		"peer":          {69, "a2c940a34635cf3b8979611ad174bed013d99b079857f9ff72e8f4ee542fd958"},
		"peer-original": {74, "b8aaa74f7d5f687b54c109fcc60d28d8a682eeb378e9a7d1ae5e86cb58f9f287"},
	}
	for _, rc := range scriptRoles {
		t.Run(rc.name, func(t *testing.T) {
			traced, tenv := newTBProcess(t, rc.id, rc.role, rc.cfg, true)
			plain, penv := newTBProcess(t, rc.id, rc.role, rc.cfg, false)
			h := sha256.New()
			n := 0
			tenv.onRecord = func(ev trace.Event) {
				fmt.Fprintf(h, "%#v\n", ev)
				n++
			}
			tsteps, psteps := script(t, traced, tenv), script(t, plain, penv)
			for i, s := range tsteps {
				s.do()
				psteps[i].do()
				if !slices.Equal(tenv.sent, penv.sent) {
					t.Fatalf("after %q: sent\n %v\nuntraced\n %v", s.name, tenv.sent, penv.sent)
				}
				if a, b := protocolState(traced), protocolState(plain); !reflect.DeepEqual(a, b) {
					t.Fatalf("after %q: state\n %+v\nuntraced\n %+v", s.name, a, b)
				}
				tc, tok := traced.Volatile.Latest()
				pc, pok := plain.Volatile.Latest()
				if tok != pok || !reflect.DeepEqual(tc, pc) {
					t.Fatalf("after %q: the slot reads\n %+v\nuntraced\n %+v", s.name, tc, pc)
				}
				if a, b := unackedOf(tenv.cp), unackedOf(penv.cp); !slices.Equal(a, b) {
					t.Fatalf("after %q: unacknowledged\n %v\nuntraced\n %v", s.name, a, b)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := golden[rc.name]; n != want.events || got != want.sha {
				t.Fatalf("%d events hashing to %s, want %d hashing to %s", n, got, want.events, want.sha)
			}
		})
	}
}

// protocolState is p with its wiring cleared — the env, the recorder and the
// checkpointer it marks, which differ between two processes by construction —
// so what remains is comparable.
func protocolState(p *Process) Process {
	q := *p
	q.env, q.rec, q.Unacked, q.Volatile.c.marks = nil, nil, nil, nil
	return q
}

func unackedOf(cp *tb.Checkpointer) []msg.Message {
	var out []msg.Message
	cp.EachUnacked(func(m msg.Message) { out = append(out, m) })
	return out
}

// TestTakeVolatileAllocatesNothing: in steady state, establishing a volatile
// checkpoint overwrites the slot and marks the TB log; it allocates nothing,
// for the active process and for the peer.
func TestTakeVolatileAllocatesNothing(t *testing.T) {
	for _, rc := range []struct {
		name       string
		id, origin msg.ProcID
		role       Role
		kind       checkpoint.Kind
	}{
		{"active", msg.P1Act, msg.P2, RoleActive, checkpoint.Pseudo},
		{"peer", msg.P2, msg.P1Act, RolePeer, checkpoint.Type1},
	} {
		t.Run(rc.name, func(t *testing.T) {
			p, _ := newTBProcess(t, rc.id, rc.role, modifiedCfg(at.Perfect()), true)
			for i := 0; i < 4; i++ {
				p.EmitInternal()
				p.Receive(internalFrom(rc.origin, uint64(i+1), uint64(i+1), false))
			}
			if got := testing.AllocsPerRun(100, func() { p.takeVolatile(rc.kind) }); got != 0 {
				t.Fatalf("takeVolatile allocates %.1f times", got)
			}
		})
	}
}
