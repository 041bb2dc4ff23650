package mdcd

import (
	"reflect"
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// TestVolatileCheckpointOutlivesTheProcess: the volatile store keeps the
// checkpoint takeVolatile hands it instead of a copy, so the snapshot itself
// must share nothing the process writes to later. For every role, each
// checkpoint taken is compared at the end with a deep copy made when it was
// taken, after sends, receptions, validations, suppression, log reclaims, a
// rollback's log truncation and a takeover. The shadow stores a view of its
// suppressed log (SuppressedPending), which is also held to the copying
// model at every checkpoint and again at the end.
func TestVolatileCheckpointOutlivesTheProcess(t *testing.T) {
	roles := []struct {
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
	for _, rc := range roles {
		t.Run(rc.name, func(t *testing.T) {
			env := newFakeEnv()
			p := NewProcess(rc.id, rc.role, rc.cfg, env)
			type view struct{ got, model []msg.Message }
			var views []view
			if rc.role == RoleShadow {
				p.UnackedProvider = func() []msg.Message {
					got, model := p.SuppressedPending(), CopySuppressedPending(p)
					if !slices.Equal(got, model) {
						t.Fatalf("suppressed view %v, copying model %v", got, model)
					}
					views = append(views, view{got, model})
					return got
				}
			}
			origin, validator := msg.P2, msg.P2
			if rc.id == msg.P2 {
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
			steps := []struct {
				name string
				do   func()
			}{
				{"clean reception", func() { receive(false) }},
				{"sends", emit},
				{"contaminating reception", func() { receive(true) }},
				{"sends while dirty", emit},
				{"reception while dirty", func() { receive(true) }},
				{"partial validation", func() { validate(2) }},
				{"sends after validation", emit},
				{"full validation", func() { validate(1 << 20) }},
				{"second contamination", func() { receive(true) }},
				{"sends after it", emit},
				{"rollback", func() {
					if _, _, err := p.RecoverSoftware(); err != nil {
						t.Fatal(err)
					}
				}},
				{"sends after rollback", emit},
				{"third contamination", func() { receive(true) }},
				{"reclaim", func() { validate(p.msgSN - 1) }},
				{"sends after reclaim", emit},
				{"takeover", p.TakeOver},
				{"sends after takeover", emit},
				{"reception after takeover", func() { receive(true) }},
			}
			type held struct {
				step     string
				c, taken *checkpoint.Checkpoint
			}
			var kept []held
			for _, s := range steps {
				s.do()
				if c, ok := p.Volatile.Latest(); ok && (len(kept) == 0 || kept[len(kept)-1].c != c) {
					kept = append(kept, held{s.name, c, c.Clone()})
				}
			}
			if len(kept) < 2 {
				t.Fatalf("the script took %d volatile checkpoints, want at least 2", len(kept))
			}
			for _, h := range kept {
				if !reflect.DeepEqual(h.c, h.taken) {
					t.Errorf("checkpoint taken at %q changed afterwards:\n got %+v\nwant %+v", h.step, h.c, h.taken)
				}
			}
			if rc.role == RoleShadow && len(views) < 2 {
				t.Fatalf("the shadow stored %d suppressed views, want at least 2", len(views))
			}
			for i, v := range views {
				if !slices.Equal(v.got, v.model) {
					t.Errorf("suppressed view %d changed afterwards: %v, model %v", i, v.got, v.model)
				}
			}
		})
	}
}
