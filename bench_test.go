package synergy

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/experiment"
	"github.com/synergy-ft/synergy/internal/live"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/storage"
)

// One benchmark per table/figure of the paper's evaluation (plus the
// ablations): each regenerates the artifact through the experiment harness
// in quick mode and reports its key quantity, so `go test -bench=.` both
// times the reproduction and re-derives the headline numbers.

func benchExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	// Workers 0 = one per CPU: campaign-shaped experiments run their
	// replications in parallel, so this times what users actually get.
	benchExperimentWorkers(b, id, metric, 0)
}

func benchExperimentWorkers(b *testing.B, id string, metric string, workers int) {
	b.Helper()
	b.ReportAllocs()
	var last experiment.Result
	for i := 0; i < b.N; i++ {
		r, err := experiment.Run(id, experiment.Options{Seed: 1, Quick: true, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if metric != "" {
		if v, ok := last.Values[metric]; ok {
			b.ReportMetric(v, metric)
		}
	}
}

// BenchmarkTable1 regenerates the original-vs-adapted TB comparison.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", "adapted_dirty_ms") }

// BenchmarkFigure1 regenerates the original MDCD checkpoint timeline.
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1", "p2_type1") }

// BenchmarkFigure2 regenerates the TB blocking-period violation study.
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2", "noblock_orphans") }

// BenchmarkFigure3 regenerates the modified MDCD timeline.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3", "act_pseudo") }

// BenchmarkFigure4 regenerates the naive-combination violation campaign.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4", "naive_dirty") }

// BenchmarkFigure6 regenerates the adapted write_disk case study.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6", "p2_replaces") }

// BenchmarkFigure7 regenerates the headline rollback-distance comparison
// with the parallel campaign runner (one worker per CPU); min_ratio is
// E[Dwt]/E[Dco] at the least favourable swept rate. Compare against
// BenchmarkFigure7Sequential for the parallel speedup — output bytes are
// identical by construction, only the wall time differs.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7", "min_ratio") }

// BenchmarkFigure7Sequential is the single-worker baseline of the fig7
// campaign: the exact pre-parallelism execution, one cell after another.
func BenchmarkFigure7Sequential(b *testing.B) { benchExperimentWorkers(b, "fig7", "min_ratio", 1) }

// BenchmarkFigure7Analytic cross-validates the renewal model against the
// simulation; worst_factor is the largest model/simulation disagreement.
func BenchmarkFigure7Analytic(b *testing.B) { benchExperiment(b, "fig7-analytic", "worst_factor") }

// BenchmarkAblationDelta sweeps the checkpoint interval.
func BenchmarkAblationDelta(b *testing.B) { benchExperiment(b, "ablation-delta", "dist_first") }

// BenchmarkAblationNdc measures the Ndc gate's effect.
func BenchmarkAblationNdc(b *testing.B) { benchExperiment(b, "ablation-ndc", "ungated_violations") }

// BenchmarkAblationBlocking measures the blocking period's effect.
func BenchmarkAblationBlocking(b *testing.B) { benchExperiment(b, "ablation-blocking", "disabled") }

// BenchmarkSimulatedMinute times one virtual minute of the coordinated
// system under the default workload — the simulator's raw throughput.
func BenchmarkSimulatedMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSimulation(Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		sys.Start()
		sys.RunFor(60)
	}
}

// BenchmarkHardwareRecovery times a full hardware error recovery (rollback
// line assembly, state restoration, unacked re-send).
func BenchmarkHardwareRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := NewSimulation(Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		sys.Start()
		sys.RunFor(30)
		b.StartTimer()
		if err := sys.InjectHardwareFault(PeerP2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftwareRecovery times a software error recovery (demotion,
// rollback/roll-forward decisions, takeover with log re-send).
func BenchmarkSoftwareRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := NewSimulation(Config{Seed: int64(i + 1), ExternalRate1: 2})
		if err != nil {
			b.Fatal(err)
		}
		sys.Start()
		sys.RunFor(30)
		sys.ActivateSoftwareFault()
		b.StartTimer()
		sys.RunFor(30) // contains detection + recovery
	}
}

// BenchmarkCosts regenerates the per-scheme overhead table.
func BenchmarkCosts(b *testing.B) { benchExperiment(b, "costs", "coordinated_stable") }

// BenchmarkAblationRepair sweeps the node repair delay.
func BenchmarkAblationRepair(b *testing.B) { benchExperiment(b, "ablation-repair", "dist_last") }

// benchStableCommit drives the storage layer's full checkpoint lifecycle —
// Begin, Replace, Commit — once per iteration, optionally against a durable
// file backend, so the cost of fsynced commits is measured against the
// in-memory baseline. A pin trailing seven rounds behind, as a lagging peer
// would set it, keeps eight rounds.
func benchStableCommit(b *testing.B, durable bool) {
	b.Helper()
	b.ReportAllocs()
	var s storage.Stable
	if durable {
		fb, _, err := storage.OpenFile(filepath.Join(b.TempDir(), "bench.stable"))
		if err != nil {
			b.Fatal(err)
		}
		defer fb.Close()
		s.SetBackend(fb)
	}
	c := checkpoint.New(checkpoint.Stable, msg.P2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.State.Step = uint64(i)
		if err := s.Begin(c); err != nil {
			b.Fatal(err)
		}
		c.State.Step = uint64(i) + 1
		if err := s.Replace(c); err != nil {
			b.Fatal(err)
		}
		s.SetPin(max(uint64(i+1), 8) - 7)
		if err := s.Commit(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLiveTransport pushes probe messages through the live loopback-TCP
// interconnect round-robin over pairs and waits for every probe to be
// consumed at the far side, so ns/op is true end-to-end cost per delivered
// message. The middleware is assembled but not started: no workload or
// checkpoint traffic shares the wire, and zero delivery delay isolates the
// transport itself. batchFrames=1 degenerates the writer to one wire batch
// (and one syscall) per message — the pre-batching baseline — while 0 keeps
// the default coalescing.
func benchLiveTransport(b *testing.B, batchFrames int, pairs [][2]msg.ProcID) {
	b.Helper()
	cfg := live.DefaultConfig(1)
	cfg.Net = live.TCPTransport
	cfg.MinDelay, cfg.MaxDelay = 0, 0
	cfg.BatchMaxFrames = batchFrames
	mw, err := live.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer mw.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		mw.SendProbe(p[0], p[1])
	}
	deadline := time.Now().Add(time.Minute)
	for {
		sent, delivered := mw.ProbeStats()
		if delivered >= sent {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("probes did not drain: sent=%d delivered=%d", sent, delivered)
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// oneChannel is the P1act→P2 channel alone; sixPairs are every directed
// channel between the three processes, in the order the benchmark module's
// wire-only flood sends on them.
var (
	oneChannel = [][2]msg.ProcID{{msg.P1Act, msg.P2}}
	sixPairs   = [][2]msg.ProcID{
		{msg.P1Act, msg.P2}, {msg.P2, msg.P1Act},
		{msg.P1Sdw, msg.P2}, {msg.P2, msg.P1Sdw},
		{msg.P1Act, msg.P1Sdw}, {msg.P1Sdw, msg.P1Act},
	}
)

// BenchmarkLiveTransportThroughput compares per-message framing (the
// pre-batching wire behavior: BatchMaxFrames=1, one write syscall per
// message) against the default coalescing writer on the same loopback
// channel. The batched path's msgs/sec gain is the syscall amortization the
// ROADMAP's high-throughput item calls for. six-pairs spreads the same
// batched load over all six directed channels, so every writer and reader
// goroutine runs at once and state they share shows up as cost.
func BenchmarkLiveTransportThroughput(b *testing.B) {
	b.Run("per-message", func(b *testing.B) { benchLiveTransport(b, 1, oneChannel) })
	b.Run("batched", func(b *testing.B) { benchLiveTransport(b, 0, oneChannel) })
	b.Run("six-pairs", func(b *testing.B) { benchLiveTransport(b, 0, sixPairs) })
}

// BenchmarkStableCommitMemory is the in-memory stable-storage baseline every
// node used before durable logs existed.
func BenchmarkStableCommitMemory(b *testing.B) { benchStableCommit(b, false) }

// BenchmarkStableCommitDurable measures the durable file backend: each
// commit appends a CRC-framed record and fsyncs before acknowledging, which
// is the price of surviving KillNode/RestartNode.
func BenchmarkStableCommitDurable(b *testing.B) { benchStableCommit(b, true) }
