package coord

import (
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/tb"
)

// procFamily is one per-process metric family. Nothing increments it: each
// series reads, at a snapshot, the count a node's process, checkpointer or
// stable store keeps for itself.
type procFamily struct {
	name, help, kind string // kind: the series' kind label, if any
	tb               bool   // counted by the checkpointer or its store
	stored           bool   // counted by the store, which a rebuilt node keeps
	read             func(p *mdcd.Process, cp *tb.Checkpointer) uint64
}

const ckptHelp = "Volatile checkpoints established, by kind."

// procFamilies is the per-process inventory, one proc-labelled series per
// node (DESIGN §12).
var procFamilies = [...]procFamily{
	{name: "synergy_mdcd_checkpoints_total", help: ckptHelp, kind: "type1",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().Type1 }},
	{name: "synergy_mdcd_checkpoints_total", help: ckptHelp, kind: "type2",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().Type2 }},
	{name: "synergy_mdcd_checkpoints_total", help: ckptHelp, kind: "pseudo",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().Pseudo }},
	{name: "synergy_mdcd_dirty_set_total", help: "Effective dirty-bit transitions to potentially contaminated.",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().DirtySet }},
	{name: "synergy_mdcd_dirty_cleared_total", help: "Effective dirty-bit transitions to clean.",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().DirtyCleared }},
	{name: "synergy_mdcd_ats_total", help: "Acceptance tests performed.",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().ATsRun }},
	{name: "synergy_mdcd_at_failures_total", help: "Acceptance-test failures (software error detections).",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().ATsFailed }},
	{name: "synergy_mdcd_ndc_deferred_total", help: "Passed-AT notifications deferred past a blocking period by the Ndc gate.",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().RejectedNdc }},
	{name: "synergy_mdcd_stale_rejected_total", help: "Passed-AT notifications ignored for the dirty bit due to stale coverage.",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().RejectedStale }},
	{name: "synergy_mdcd_duplicates_total", help: "Re-delivered messages discarded by ChanSeq dedup.",
		read: func(p *mdcd.Process, _ *tb.Checkpointer) uint64 { return p.Stats().Duplicates }},
	{name: "synergy_tb_stable_commits_total", help: "Committed stable checkpoints (Ndc increments).", tb: true, stored: true,
		read: func(_ *mdcd.Process, cp *tb.Checkpointer) uint64 { return cp.Stable.Commits() }},
	{name: "synergy_tb_stable_replaces_total", help: "Abort-and-replace adjustments of an in-flight stable write.", tb: true, stored: true,
		read: func(_ *mdcd.Process, cp *tb.Checkpointer) uint64 { return cp.Stable.Replaces() }},
	{name: "synergy_tb_skipped_busy_total", help: "Checkpoint timer expiries skipped because a stable write was still in flight.", tb: true,
		read: func(_ *mdcd.Process, cp *tb.Checkpointer) uint64 { return cp.Stats().SkippedBusy }},
	{name: "synergy_tb_resync_requests_total", help: "Clock resynchronization requests issued.", tb: true,
		read: func(_ *mdcd.Process, cp *tb.Checkpointer) uint64 { return cp.Stats().ResyncRequests }},
	{name: "synergy_tb_commit_retries_total", help: "Durable stable-commit retries after transient backend failures.", tb: true,
		read: func(_ *mdcd.Process, cp *tb.Checkpointer) uint64 { return cp.Stats().CommitRetries }},
}

// register puts a node's series on the run's registry at assembly: a series
// holds the node to read it and adds what the node's replaced incarnations
// counted. The checkpointer observes τ(b) itself, into a histogram each
// rebuilt checkpointer takes over.
func (s *System) register(n *node) {
	reg := s.cfg.Obs
	if reg == nil {
		return
	}
	proc := obs.L("proc", n.id.String())
	for i := range procFamilies {
		f := &procFamilies[i]
		if f.tb && n.cp == nil {
			continue
		}
		labels := []obs.Label{proc}
		if f.kind != "" {
			labels = append(labels, obs.L("kind", f.kind))
		}
		reg.CounterFunc(f.name, f.help, func() uint64 {
			s.rt.Hold(n.id)
			defer s.rt.Release(n.id)
			return n.base[i] + f.read(n.proc, n.cp)
		}, labels...)
	}
	if n.cp != nil {
		n.blocking = reg.Histogram("synergy_tb_blocking_seconds",
			"TB blocking-period length tau(b) per stable checkpoint.",
			obs.ExpBuckets(0.0005, 2, 12), proc)
		n.cp.Blocking = n.blocking
	}
}

// retire adds a replaced incarnation's counts to its node's base (every node
// held), once a rebuild has landed. The store's counts stay with the store.
func (n *node) retire(p *mdcd.Process, cp *tb.Checkpointer) {
	for i := range procFamilies {
		f := &procFamilies[i]
		if !f.stored && (!f.tb || cp != nil) {
			n.base[i] += f.read(p, cp)
		}
	}
}
