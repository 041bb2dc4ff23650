package experiment

import (
	"fmt"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/campaign"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Figure2 reproduces the TB protocol's motivation: without blocking periods,
// imperfect timer synchronization lets messages cross the checkpoint line —
// a message read before the receiver's checkpoint but sent after the
// sender's destroys consistency (the figure's m1). With the
// blocking-for-consistency period restored, the violations disappear;
// recoverability never relies on blocking because unacknowledged messages
// are saved with the next checkpoint (the figure's m2).
//
// The two configurations are independent simulations over the same seed (a
// paired comparison), so they run as a two-cell campaign.
func Figure2(opts Options) (Result, error) {
	rounds := 150
	if opts.Quick {
		rounds = 40
	}
	type counts struct {
		orphans, lost, checked int
	}
	cells, err := campaign.Run(2, opts.workers(), func(c campaign.Cell) (counts, error) {
		disableBlocking := c.Index == 0
		cfg := coord.DefaultConfig(coord.TBOnly, opts.seed())
		// A visibly skewed system: timers deviate by up to 400ms while
		// messages fly for 5–50ms, and traffic is brisk, so an
		// unprotected checkpoint line is crossed regularly.
		cfg.Clock = vtime.ClockConfig{MaxDeviation: 400 * time.Millisecond, DriftRate: 1e-4}
		cfg.Net = coord.NetConfig{MinDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
		cfg.CheckpointInterval = 5 * time.Second
		cfg.Workload1 = app.Workload{InternalRate: 20}
		cfg.Workload2 = app.Workload{InternalRate: 20}
		cfg.DisableBlocking = disableBlocking
		sys, err := coord.NewSystem(cfg)
		if err != nil {
			return counts{}, err
		}
		sys.Start()
		var out counts
		for r := 0; r < rounds; r++ {
			sys.RunFor(cfg.CheckpointInterval.Seconds())
			line, err := sys.StableLine()
			if err != nil {
				continue
			}
			vs := line.Check()
			out.orphans += invariant.Count(vs, invariant.OrphanMessage)
			out.lost += invariant.Count(vs, invariant.LostMessage)
			out.checked++
		}
		return out, nil
	})
	if err != nil {
		return Result{}, err
	}
	noBlock, block := cells[0], cells[1]

	body := fmt.Sprintf(
		"configuration            rounds  consistency-violations  recoverability-violations\n"+
			"no blocking period       %6d  %22d  %25d\n"+
			"with blocking period     %6d  %22d  %25d\n",
		noBlock.checked, noBlock.orphans, noBlock.lost,
		block.checked, block.orphans, block.lost)
	return Result{
		Values: map[string]float64{
			"noblock_orphans": float64(noBlock.orphans),
			"noblock_lost":    float64(noBlock.lost),
			"block_orphans":   float64(block.orphans),
			"block_lost":      float64(block.lost),
		},
		ID:    "fig2",
		Title: "Global State Consistency and Recoverability under the TB protocol",
		Body:  body,
		Notes: "Blocking eliminates consistency violations; recoverability is covered by unacknowledged-message logging in both configurations.",
	}, nil
}
