package mdcd

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/storage"
)

// stableRecordModel is the record a stable write's contents used to be
// before they were encoded in place: the stable Snapshot, or the volatile
// slot's record relabelled stable and clean.
func stableRecordModel(p *Process, fromVolatile bool) (*checkpoint.Checkpoint, bool) {
	if !fromVolatile {
		return p.Snapshot(checkpoint.Stable), true
	}
	c, ok := p.Volatile.Latest()
	if ok {
		c.Kind, c.Dirty = checkpoint.Stable, false
	}
	return c, ok
}

// checkStableContents fails unless both of p's stable contents encode as the
// records they replaced.
func checkStableContents(t *testing.T, p *Process, step string) {
	t.Helper()
	for _, fromVolatile := range []bool{false, true} {
		enc, ok := p.StableContents(fromVolatile)
		rec, wantOK := stableRecordModel(p, fromVolatile)
		if ok != wantOK {
			t.Fatalf("after %q: StableContents(%v) reports %v, the model %v", step, fromVolatile, ok, wantOK)
		}
		if !ok {
			continue
		}
		if got, want := enc.AppendTo(nil), checkpoint.Encode(rec); !bytes.Equal(got, want) {
			t.Fatalf("after %q: StableContents(%v) encodes\n %x\nthe model record\n %x", step, fromVolatile, got, want)
		}
	}
}

// TestStableContentsEncodeLikeRecords: after every step of every role's
// script, a stable write of the current state and of the volatile copy
// encodes exactly the bytes of the record the process used to build.
func TestStableContentsEncodeLikeRecords(t *testing.T) {
	for _, rc := range scriptRoles {
		t.Run(rc.name, func(t *testing.T) {
			p, env := newTBProcess(t, rc.id, rc.role, rc.cfg, false)
			checkStableContents(t, p, "start")
			for _, s := range script(t, p, env) {
				s.do()
				checkStableContents(t, p, s.name)
			}
		})
	}
}

// TestStableWriteAllocatesNothing: once the store's buffers are warm, a
// stable write — its contents named and encoded, then committed — allocates
// nothing, from the current state or the volatile copy, for the active
// process, the suppressing shadow and the peer.
func TestStableWriteAllocatesNothing(t *testing.T) {
	for _, rc := range []struct {
		name       string
		id, origin msg.ProcID
		role       Role
		kind       checkpoint.Kind
	}{
		{"active", msg.P1Act, msg.P2, RoleActive, checkpoint.Pseudo},
		{"shadow", msg.P1Sdw, msg.P2, RoleShadow, checkpoint.Type1},
		{"peer", msg.P2, msg.P1Act, RolePeer, checkpoint.Type1},
	} {
		t.Run(rc.name, func(t *testing.T) {
			p, _ := newTBProcess(t, rc.id, rc.role, modifiedCfg(at.Perfect()), false)
			for i := 0; i < 4; i++ {
				p.EmitInternal()
				p.Receive(internalFrom(rc.origin, uint64(i+1), uint64(i+1), false))
			}
			p.takeVolatile(rc.kind)
			p.EmitInternal()
			if rc.role == RoleShadow && len(p.SuppressedPending()) == 0 {
				t.Fatal("the shadow suppressed nothing")
			}
			var st storage.Stable
			round := uint64(0)
			for _, fromVolatile := range []bool{false, true} {
				write := func() {
					enc, _ := p.StableContents(fromVolatile)
					if err := st.Begin(enc); err != nil {
						t.Fatal(err)
					}
					round++
					if err := st.Commit(round); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					write()
				}
				if got := testing.AllocsPerRun(100, write); got != 0 {
					t.Fatalf("a stable write (fromVolatile %v) allocates %.1f times", fromVolatile, got)
				}
			}
		})
	}
}

// TestStableScratchLeavesTheSlotAlone: a stable write from the volatile copy
// copies the shadow's suppressed entries into the scratch's own buffer, so
// the stable writes of the current state that follow, which capture into
// that scratch, leave the slot reading as it was taken.
func TestStableScratchLeavesTheSlotAlone(t *testing.T) {
	p, _ := newTBProcess(t, msg.P1Sdw, RoleShadow, modifiedCfg(at.Perfect()), false)
	for i := 0; i < 3; i++ {
		p.EmitInternal()
	}
	p.takeVolatile(checkpoint.Type1)
	want, _ := p.Volatile.Latest()
	if len(want.Unacked) == 0 {
		t.Fatal("the shadow's checkpoint stored no suppressed entry")
	}
	p.StableContents(true)
	p.Receive(msg.Message{Kind: msg.PassedAT, From: msg.P1Act, To: msg.P1Sdw, ValidSN: p.msgSN})
	for i := 0; i < 2; i++ {
		p.EmitInternal()
		p.StableContents(false)
	}
	if got, _ := p.Volatile.Latest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the stable writes reached the slot: it reads\n %+v\nbut was taken as\n %+v", got, want)
	}
}
