package coord

import (
	"bytes"
	"testing"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
)

// checkedHost is a node as its checkpointer's host that, on every stable
// write, also builds the record the write used to hand the store — the
// process's stable Snapshot, or its volatile slot's record relabelled stable
// and clean — and compares the bytes.
type checkedHost struct {
	*node
	t      *testing.T
	writes *[2]int // current state, volatile copy
}

func (h checkedHost) StableContents(fromVolatile bool) (checkpoint.Encoder, bool) {
	enc, ok := h.node.StableContents(fromVolatile)
	rec, wantOK := h.proc.Snapshot(checkpoint.Stable), true
	if fromVolatile {
		if rec, wantOK = h.proc.Volatile.Latest(); wantOK {
			rec.Kind, rec.Dirty = checkpoint.Stable, false
		}
	}
	if ok != wantOK {
		h.t.Fatalf("%v at %v: StableContents(%v) reports %v, the record %v", h.id, h.Now(), fromVolatile, ok, wantOK)
	}
	if !ok {
		return enc, ok
	}
	if got, want := enc.AppendTo(nil), checkpoint.Encode(rec); !bytes.Equal(got, want) {
		h.t.Fatalf("%v at %v: StableContents(%v) encodes\n %x\nthe record\n %x", h.id, h.Now(), fromVolatile, got, want)
	}
	if fromVolatile {
		h.writes[1]++
	} else {
		h.writes[0]++
	}
	return enc, ok
}

// TestStableWritesEncodeLikeRecords: under every scheme, on seeds 1–10 of
// the reboot schedule's configuration, through a hardware fault, a software
// fault and a crash with its reboot, every stable write — timer-driven,
// replaced or written through — encodes exactly the bytes of the record the
// node used to build for it.
func TestStableWritesEncodeLikeRecords(t *testing.T) {
	var writes [2]int
	orig := stableHost
	stableHost = func(n *node) tb.Host { return checkedHost{node: n, t: t, writes: &writes} }
	t.Cleanup(func() { stableHost = orig })

	var replaces uint64
	for _, scheme := range []Scheme{Coordinated, WriteThrough, Naive, TBOnly, MDCDOnly, ContentOnly, OriginalMDCD} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := rebootConfig(seed)
			cfg.Scheme = scheme
			s := newSystem(t, cfg)
			s.Start()
			s.RunFor(0.5)
			if err := s.InjectHardwareFault(msg.NodeID(msg.P2)); err != nil {
				t.Fatalf("%v seed %d: %v", scheme, seed, err)
			}
			s.RunFor(0.3)
			s.ActivateSoftwareFault()
			s.RunFor(0.3)
			s.CrashNode(msg.NodeID(msg.P2))
			s.RunFor(2 * cfg.CheckpointInterval.Seconds())
			if err := s.RebootNode(msg.NodeID(msg.P2)); err != nil {
				t.Fatalf("%v seed %d: reboot: %v", scheme, seed, err)
			}
			s.RunFor(0.3)
			for _, id := range []msg.ProcID{msg.P1Act, msg.P1Sdw, msg.P2} {
				if cp := s.Checkpointer(id); cp != nil {
					replaces += cp.Stable.Replaces()
				}
			}
		}
	}
	if writes[0] == 0 || writes[1] == 0 || replaces == 0 {
		t.Fatalf("%d current-state and %d volatile-copy writes, %d replacements: want each", writes[0], writes[1], replaces)
	}
	t.Logf("%d current-state and %d volatile-copy writes checked, %d replacements among them", writes[0], writes[1], replaces)
}
