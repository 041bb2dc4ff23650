package mdcd_test

import (
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// TestSuppressedViewsMatchCopyingModel is the differential oracle of the
// shadow's shared suppressed log. Over the cells of a quick Figure 7 campaign
// (both schemes, rates 60/120/200, two trials) for experiment seeds 1–50,
// every unacknowledged set a shadow checkpoint stores (a view of the log, in
// the volatile slot or a committed stable round) must equal, element for
// element, what the copying SuppressedPending it replaced returns at the
// instant it was captured — and still equal that copy once the run has
// appended, reclaimed, truncated and rolled back after it. The simulator
// is single-threaded, so the race detector has nothing to find here: under it,
// and with -short, the sweep stops at seed 5.
func TestSuppressedViewsMatchCopyingModel(t *testing.T) {
	seeds := int64(50)
	if testing.Short() || raceEnabled {
		seeds = 5
	}
	var stored, nonEmpty int
	for seed := int64(1); seed <= seeds; seed++ {
		for _, scheme := range []coord.Scheme{coord.Coordinated, coord.WriteThrough} {
			for _, rate := range []float64{60, 120, 200} {
				for trial := int64(0); trial < 2; trial++ {
					// The cell seed and schedule of experiment.rollbackTrial.
					cellSeed := seed + trial*7919 + int64(rate)*104729
					views := fig7Cell(t, scheme, rate, cellSeed)
					for i, v := range views {
						if !slices.Equal(v.got, v.model) {
							t.Fatalf("%v rate %g seed %d: stored view %d of %d changed afterwards:\n got %v\nwant %v",
								scheme, rate, cellSeed, i, len(views), v.got, v.model)
						}
						if len(v.got) > 0 {
							nonEmpty++
						}
					}
					stored += len(views)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("%d shadow checkpoints stored no suppressed entry", stored)
	}
	t.Logf("%d shadow checkpoints, %d with suppressed entries", stored, nonEmpty)
}

type suppressedView struct{ got, model []msg.Message }

// hookedRuntime is the simulator's runtime for coord.New (the simulator's
// seam, the in-process interconnect over it, flushes that forget the FIFO
// high-waters, an inline Recover) with its trace handed to onRecord.
type hookedRuntime struct {
	*seam.Sim
	*coord.Interconnect
	onRecord func(trace.Event)
}

func (r *hookedRuntime) Record(e trace.Event)                     { r.onRecord(e) }
func (r *hookedRuntime) Attach(msg.ProcID, *storage.Stable) error { return nil }
func (r *hookedRuntime) FailStop(msg.ProcID, error) bool          { return false }
func (r *hookedRuntime) Recover(fn func())                        { fn() }

func (r *hookedRuntime) Flush() {
	r.Interconnect.Flush()
	r.Forget()
}

// fig7Cell runs one rollback-distance cell and checks the shadow's stored
// unacknowledged sets where they are stored, from its trace: at each volatile
// checkpoint the slot's view is compared with the copying model at once; at
// each stable write the contents' view is predicted (the model then, or the
// volatile slot's view when a dirty shadow copies it) and the committed round
// compared with the prediction. Each view is kept, with the model's copy,
// for the caller.
func fig7Cell(t *testing.T, scheme coord.Scheme, rate float64, seed int64) []suppressedView {
	t.Helper()
	cfg := coord.DefaultConfig(scheme, seed)
	cfg.Workload1 = app.Workload{InternalRate: rate / 100, ExternalRate: 0.5}
	cfg.Workload2 = app.Workload{InternalRate: rate / 100, ExternalRate: 1.0 / 300}
	cfg.TraceEnabled = true // the checkpointers record their writes
	rt := &hookedRuntime{Sim: seam.NewSim(sim.New(cfg.Seed))}
	var sys *coord.System
	rt.Interconnect = coord.NewInterconnect(rt.Sim, cfg.Seed, cfg.Net, nil, func(m msg.Message) { sys.Deliver(&m) })
	sys, err := coord.New(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	p, cp := sys.Process(msg.P1Sdw), sys.Checkpointer(msg.P1Sdw)
	var views []suppressedView
	keep := func(what string, got, model []msg.Message) {
		if !slices.Equal(got, model) {
			t.Fatalf("%v rate %g seed %d: %s stored view %v, copying model %v", scheme, rate, seed, what, got, model)
		}
		views = append(views, suppressedView{got, slices.Clone(model)})
	}
	// writing is the stable write in flight, as predicted when it began.
	var writing []msg.Message
	rt.onRecord = func(e trace.Event) {
		if e.Proc != msg.P1Sdw || p.Promoted() {
			return
		}
		switch {
		case e.Kind == trace.CheckpointTaken:
			c, _ := p.Volatile.Latest()
			keep("volatile", c.Unacked, mdcd.CopySuppressedPending(p))
		case e.Kind == trace.StableBegun && e.Ckpt == checkpoint.Stable && p.EffectiveDirty():
			c, _ := p.Volatile.Latest()
			writing = c.Unacked
		case e.Kind == trace.StableBegun && e.Ckpt == checkpoint.Stable,
			e.Kind == trace.StableReplaced && e.Ckpt == checkpoint.Stable:
			writing = mdcd.CopySuppressedPending(p)
		case e.Kind == trace.StableCommitted && e.Ckpt == checkpoint.Stable:
			if e.Note == "write-through" {
				writing = mdcd.CopySuppressedPending(p)
			}
			c, err := cp.LatestStable()
			if err != nil {
				t.Fatal(err)
			}
			keep("stable", c.Unacked, writing)
		}
	}
	sys.Start()
	rt.Eng.RunUntil(vtime.FromSeconds(400))
	for f := 0; f < 3; f++ {
		rt.Eng.RunUntil(rt.Eng.Now().Add(vtime.FromSeconds(90 * (0.5 + rt.Eng.Rand().Float64())).Sub(vtime.Zero)))
		node := msg.NodeID(1 + rt.Eng.Rand().Intn(3))
		if err := sys.InjectHardwareFault(node); err != nil {
			t.Fatalf("%v rate %g seed %d: fault %d: %v", scheme, rate, seed, f, err)
		}
	}
	if sys.Process(msg.P1Sdw) != p {
		t.Fatalf("%v rate %g seed %d: the shadow was rebuilt, so its later checkpoints went unchecked", scheme, rate, seed)
	}
	return views
}
