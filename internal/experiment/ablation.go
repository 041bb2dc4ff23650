package experiment

import (
	"fmt"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/campaign"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/stats"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// AblationDelta sweeps the TB checkpoint interval Δ and reports the mean
// rollback distance against the stable-storage write rate: the fundamental
// recovery-efficiency / overhead trade-off the coordination inherits from
// the TB protocol. The (Δ, trial) grid runs as one parallel campaign; trial
// seeds are shared across the swept Δ values (a paired sweep).
func AblationDelta(opts Options) (Result, error) {
	deltas := []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 20 * time.Second, 40 * time.Second}
	trials, faults := 8, 5
	warmup, gap := 600.0, 120.0
	if opts.Quick {
		deltas = deltas[1:4]
		trials, faults = 2, 3
		warmup, gap = 300, 80
	}
	type cellOut struct {
		sample           *stats.Sample
		commits, horizon float64
	}
	cells, err := campaign.Run(len(deltas)*trials, opts.workers(), func(c campaign.Cell) (cellOut, error) {
		d := deltas[c.Index/trials]
		trial := c.Index % trials
		cfg := coord.DefaultConfig(coord.Coordinated, opts.seed()+int64(trial)*31)
		cfg.CheckpointInterval = d
		cfg.Workload1 = app.Workload{InternalRate: 1, ExternalRate: 0.5}
		cfg.Workload2 = app.Workload{InternalRate: 1, ExternalRate: 1.0 / 300}
		sys, err := coord.NewSystem(cfg)
		if err != nil {
			return cellOut{}, err
		}
		sys.Start()
		sys.RunUntil(vtime.FromSeconds(warmup))
		for f := 0; f < faults; f++ {
			sys.RunFor(gap)
			if err := sys.InjectHardwareFault(msg.NodeID(1 + sys.Engine().Rand().Intn(3))); err != nil {
				return cellOut{}, err
			}
		}
		out := cellOut{sample: &sys.Metrics().RollbackDistance}
		for _, id := range msg.Processes() {
			out.commits += float64(sys.Checkpointer(id).Stable.Commits())
		}
		out.horizon = sys.Engine().Now().Seconds()
		return out, nil
	})
	if err != nil {
		return Result{}, err
	}
	var dist, writes stats.Series
	dist.Label = "E[D] (s)"
	writes.Label = "commits/100s"
	for di, d := range deltas {
		agg := &stats.Sample{}
		var commits, horizon float64
		for trial := 0; trial < trials; trial++ {
			cell := cells[di*trials+trial]
			agg.Merge(cell.sample)
			commits += cell.commits
			horizon += cell.horizon
		}
		dist.Add(d.Seconds(), agg.Mean(), agg.CI95())
		writes.Add(d.Seconds(), commits/(horizon/100*3), 0)
	}
	first, last := dist.Points[0], dist.Points[len(dist.Points)-1]
	return Result{
		Values: map[string]float64{
			"dist_first": first.Y, "dist_last": last.Y,
			"writes_first": writes.Points[0].Y, "writes_last": writes.Points[len(writes.Points)-1].Y,
		},
		ID:    "ablation-delta",
		Title: "Checkpoint interval Δ: rollback distance vs stable-write overhead",
		Body:  stats.FormatTable("Δ (s)", dist, writes),
		Notes: "Smaller Δ buys shorter rollbacks at proportionally more stable-storage writes.",
	}, nil
}

// AblationNdc turns off the Ndc gate on passed-AT knowledge updates. The
// gate's job is negative — preventing a notification from a process that has
// already completed its stable checkpoint from wrongly adjusting another's
// in-progress contents — so the ablation counts recovery-line violations
// with and without it, plus how often the gate actually fires. The two
// configurations run as a paired two-cell campaign over one seed.
func AblationNdc(opts Options) (Result, error) {
	rounds := 250
	if opts.Quick {
		rounds = 60
	}
	type counts struct {
		violations, checked int
		rejected            uint64
	}
	cells, err := campaign.Run(2, opts.workers(), func(c campaign.Cell) (counts, error) {
		disableGate := c.Index == 1
		cfg := coord.DefaultConfig(coord.Coordinated, opts.seed())
		cfg.Clock = vtime.ClockConfig{MaxDeviation: 500 * time.Millisecond, DriftRate: 1e-4}
		cfg.Net = coord.NetConfig{MinDelay: 5 * time.Millisecond, MaxDelay: 60 * time.Millisecond}
		cfg.CheckpointInterval = 5 * time.Second
		cfg.Workload1 = app.Workload{InternalRate: 4, ExternalRate: 0.8}
		cfg.Workload2 = app.Workload{InternalRate: 4, ExternalRate: 0.8}
		cfg.DisableNdcGate = disableGate
		sys, err := coord.NewSystem(cfg)
		if err != nil {
			return counts{}, err
		}
		sys.Start()
		var out counts
		for r := 0; r < rounds; r++ {
			sys.RunFor(cfg.CheckpointInterval.Seconds())
			line, lineErr := sys.StableLine()
			if lineErr != nil {
				continue
			}
			out.violations += len(line.Check())
			out.checked++
		}
		for _, id := range msg.Processes() {
			out.rejected += sys.Process(id).Stats().RejectedNdc
		}
		return out, nil
	})
	if err != nil {
		return Result{}, err
	}
	gated, open := cells[0], cells[1]
	body := fmt.Sprintf(
		"configuration   rounds  line-violations  gate-rejections\n"+
			"gated (paper)   %6d  %15d  %15d\n"+
			"gate disabled   %6d  %15d  %15s\n",
		gated.checked, gated.violations, gated.rejected, open.checked, open.violations, "-")
	return Result{
		Values: map[string]float64{
			"gated_violations":   float64(gated.violations),
			"ungated_violations": float64(open.violations),
			"gate_rejections":    float64(gated.rejected),
		},
		ID:    "ablation-ndc",
		Title: "Ndc gating of passed-AT knowledge updates",
		Body:  body,
		Notes: "The gate rejects stale notifications (nonzero rejections) while keeping the recovery line violation-free.",
	}, nil
}

// AblationBlocking removes the blocking period from the coordinated scheme,
// re-exposing the consistency violations of Figure 2 inside the full system.
// Like Figure 2, the two configurations run as a paired two-cell campaign.
func AblationBlocking(opts Options) (Result, error) {
	rounds := 150
	if opts.Quick {
		rounds = 40
	}
	type counts struct {
		orphans, checked int
	}
	cells, err := campaign.Run(2, opts.workers(), func(c campaign.Cell) (counts, error) {
		disable := c.Index == 0
		cfg := coord.DefaultConfig(coord.Coordinated, opts.seed())
		cfg.Clock = vtime.ClockConfig{MaxDeviation: 400 * time.Millisecond, DriftRate: 1e-4}
		cfg.Net = coord.NetConfig{MinDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
		cfg.CheckpointInterval = 5 * time.Second
		cfg.Workload1 = app.Workload{InternalRate: 20, ExternalRate: 0.5}
		cfg.Workload2 = app.Workload{InternalRate: 20, ExternalRate: 0.5}
		cfg.DisableBlocking = disable
		sys, err := coord.NewSystem(cfg)
		if err != nil {
			return counts{}, err
		}
		sys.Start()
		var out counts
		for r := 0; r < rounds; r++ {
			sys.RunFor(cfg.CheckpointInterval.Seconds())
			line, lineErr := sys.StableLine()
			if lineErr != nil {
				continue
			}
			out.orphans += invariant.Count(line.Check(), invariant.OrphanMessage)
			out.checked++
		}
		return out, nil
	})
	if err != nil {
		return Result{}, err
	}
	off, on := cells[0], cells[1]
	body := fmt.Sprintf(
		"configuration      rounds  consistency-violations\n"+
			"blocking disabled  %6d  %22d\n"+
			"blocking enabled   %6d  %22d\n",
		off.checked, off.orphans, on.checked, on.orphans)
	return Result{
		Values: map[string]float64{"disabled": float64(off.orphans), "enabled": float64(on.orphans)},
		ID:     "ablation-blocking",
		Title:  "Blocking periods in the coordinated scheme",
		Body:   body,
		Notes:  "Without blocking, messages cross the checkpoint line under timer skew.",
	}, nil
}

// AblationRepair sweeps the node repair delay: with a fail-stop period the
// survivors' work during the outage is rolled back too, so the mean rollback
// distance grows from the Δ-bound toward Δ plus the downtime. The
// (repair, trial) grid runs as one parallel campaign with trial seeds shared
// across the swept delays (a paired sweep).
func AblationRepair(opts Options) (Result, error) {
	repairs := []time.Duration{0, 30 * time.Second, 60 * time.Second, 120 * time.Second}
	trials, faults := 6, 4
	if opts.Quick {
		repairs = repairs[:3]
		trials, faults = 2, 2
	}
	cells, err := campaign.Run(len(repairs)*trials, opts.workers(), func(c campaign.Cell) (*stats.Sample, error) {
		repair := repairs[c.Index/trials]
		trial := c.Index % trials
		cfg := coord.DefaultConfig(coord.Coordinated, opts.seed()+int64(trial)*53)
		cfg.Workload1 = app.Workload{InternalRate: 1, ExternalRate: 0.5}
		cfg.Workload2 = app.Workload{InternalRate: 1, ExternalRate: 1.0 / 300}
		sys, err := coord.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sys.Start()
		sys.RunUntil(vtime.FromSeconds(120))
		for f := 0; f < faults; f++ {
			sys.RunFor(90 + 30*sys.Engine().Rand().Float64())
			node := msg.NodeID(1 + sys.Engine().Rand().Intn(3))
			if repair == 0 {
				if err := sys.InjectHardwareFault(node); err != nil {
					return nil, err
				}
				continue
			}
			sys.CrashNode(node)
			sys.RunFor(repair.Seconds())
			if err := sys.RepairNode(node); err != nil {
				return nil, err
			}
		}
		return &sys.Metrics().RollbackDistance, nil
	})
	if err != nil {
		return Result{}, err
	}
	var dist stats.Series
	dist.Label = "E[D] (s)"
	for ri, repair := range repairs {
		agg := &stats.Sample{}
		for trial := 0; trial < trials; trial++ {
			agg.Merge(cells[ri*trials+trial])
		}
		dist.Add(repair.Seconds(), agg.Mean(), agg.CI95())
	}
	first, last := dist.Points[0], dist.Points[len(dist.Points)-1]
	return Result{
		Values: map[string]float64{"dist_first": first.Y, "dist_last": last.Y,
			"last_repair": last.X},
		ID:    "ablation-repair",
		Title: "Node repair delay vs rollback distance",
		Body:  stats.FormatTable("repair (s)", dist),
		Notes: "With a fail-stop outage, recovery discards the survivors' work back to the last round the crashed node holds: E[D] ≈ downtime + Δ-scale.",
	}, nil
}
