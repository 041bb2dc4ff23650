package mdcd_test

import (
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// TestSuppressedViewsMatchCopyingModel is the differential oracle of the
// shadow's shared suppressed log. Over the cells of a quick Figure 7 campaign
// (both schemes, rates 60/120/200, two trials) for experiment seeds 1–50,
// every unacknowledged set a shadow checkpoint stores (a view of the log)
// must equal, element for element, what the copying SuppressedPending it
// replaced returns at that instant — and still equal that copy once the run
// has appended, reclaimed, truncated and rolled back after it. The simulator
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

// fig7Cell runs one rollback-distance cell with the shadow's unacknowledged
// provider wrapped: each view it hands a checkpoint is compared with the
// copying model at once and kept, with the model's copy, for the caller.
func fig7Cell(t *testing.T, scheme coord.Scheme, rate float64, seed int64) []suppressedView {
	t.Helper()
	cfg := coord.DefaultConfig(scheme, seed)
	cfg.Workload1 = app.Workload{InternalRate: rate / 100, ExternalRate: 0.5}
	cfg.Workload2 = app.Workload{InternalRate: rate / 100, ExternalRate: 1.0 / 300}
	sys, err := coord.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Process(msg.P1Sdw)
	provider := p.UnackedProvider
	var views []suppressedView
	p.UnackedProvider = func() []msg.Message {
		got := provider()
		if !p.Promoted() {
			model := mdcd.CopySuppressedPending(p)
			if !slices.Equal(got, model) {
				t.Fatalf("%v rate %g seed %d: stored view %v, copying model %v", scheme, rate, seed, got, model)
			}
			views = append(views, suppressedView{got, model})
		}
		return got
	}
	sys.Start()
	sys.RunUntil(vtime.FromSeconds(400))
	for f := 0; f < 3; f++ {
		sys.RunFor(90 * (0.5 + sys.Engine().Rand().Float64()))
		node := msg.NodeID(1 + sys.Engine().Rand().Intn(3))
		if err := sys.InjectHardwareFault(node); err != nil {
			t.Fatalf("%v rate %g seed %d: fault %d: %v", scheme, rate, seed, f, err)
		}
	}
	if sys.Process(msg.P1Sdw) != p {
		t.Fatalf("%v rate %g seed %d: the shadow was rebuilt, so its later checkpoints went unchecked", scheme, rate, seed)
	}
	return views
}
