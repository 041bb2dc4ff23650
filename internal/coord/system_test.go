package coord

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustHealthy(t *testing.T, s *System) {
	t.Helper()
	if failed, why := s.Failed(); failed {
		t.Fatalf("system failed: %s", why)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{name: "ok", mutate: func(*Config) {}},
		{name: "bad scheme", mutate: func(c *Config) { c.Scheme = 99 }, wantErr: true},
		{name: "nil test", mutate: func(c *Config) { c.Test = nil }, wantErr: true},
		{name: "bad clock", mutate: func(c *Config) { c.Clock.DriftRate = -1 }, wantErr: true},
		{name: "bad net", mutate: func(c *Config) { c.Net.MinDelay = -1 }, wantErr: true},
		{name: "bad workload", mutate: func(c *Config) { c.Workload1.InternalRate = -1 }, wantErr: true},
		{name: "interval too small", mutate: func(c *Config) { c.CheckpointInterval = time.Millisecond }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(Coordinated, 1)
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestSchemeStrings(t *testing.T) {
	for s := Coordinated; s <= MDCDOnly; s++ {
		if s.String() == "" || s.String()[0] == 's' && s.String() != "scheme(99)" && false {
			t.Fatal("unreachable")
		}
	}
	if Scheme(99).String() != "scheme(99)" {
		t.Fatal("unknown scheme name")
	}
}

func TestCoordinatedSteadyState(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 7)
	cfg.TraceEnabled = true
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(120))
	mustHealthy(t, s)

	for _, id := range msg.Processes() {
		cp := s.Checkpointer(id)
		if cp.Ndc() < 10 {
			t.Fatalf("%v committed only %d stable checkpoints in 120s (Δ=10s)", id, cp.Ndc())
		}
	}
	// Checkpoint cadence is synchronized: Ndc values within one interval.
	n1, n2, n3 := s.Checkpointer(msg.P1Act).Ndc(), s.Checkpointer(msg.P1Sdw).Ndc(), s.Checkpointer(msg.P2).Ndc()
	for _, n := range []uint64{n2, n3} {
		d := int64(n1) - int64(n)
		if d < -1 || d > 1 {
			t.Fatalf("Ndc diverged: %d %d %d", n1, n2, n3)
		}
	}
	// The shadow transmitted nothing; P1act and P2 exchanged traffic.
	if s.Process(msg.P1Sdw).Stats().Suppressed == 0 {
		t.Fatal("shadow suppressed nothing — guarded operation not exercised")
	}
	if s.Process(msg.P2).Stats().InternalSent == 0 {
		t.Fatal("P2 sent no internal traffic")
	}
}

func TestCoordinatedStableLineAlwaysValid(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 11)
	s := newSystem(t, cfg)
	s.Start()
	// Sample the recovery line at many instants; it must always satisfy
	// consistency, recoverability and clean-content properties.
	for step := 1; step <= 40; step++ {
		s.RunUntil(vtime.FromSeconds(float64(15 + step*7)))
		mustHealthy(t, s)
		line, err := s.StableLine()
		if err != nil {
			t.Fatalf("at step %d: %v", step, err)
		}
		if vs := line.Check(); len(vs) != 0 {
			t.Fatalf("at %v: violations %v", s.Engine().Now(), vs)
		}
	}
}

func TestCoordinatedReplicasConvergeAtQuiescence(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 13)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(90))
	s.Quiesce()
	mustHealthy(t, s)
	if !s.ReplicasConverged() {
		t.Fatalf("active %+v and shadow %+v diverged",
			s.Process(msg.P1Act).State, s.Process(msg.P1Sdw).State)
	}
}

func TestHardwareFaultRecovery(t *testing.T) {
	for _, node := range []msg.NodeID{1, 2, 3} {
		cfg := DefaultConfig(Coordinated, 17)
		s := newSystem(t, cfg)
		s.Start()
		s.RunUntil(vtime.FromSeconds(47))
		if err := s.InjectHardwareFault(node); err != nil {
			t.Fatalf("node %v: %v", node, err)
		}
		s.RunUntil(vtime.FromSeconds(120))
		s.Quiesce()
		mustHealthy(t, s)
		if !s.ReplicasConverged() {
			t.Fatalf("node %v: replicas diverged after hardware recovery", node)
		}
		m := s.Metrics()
		if m.HWFaults != 1 || m.RollbackDistance.N() != 3 {
			t.Fatalf("node %v: metrics %+v", node, m)
		}
		// Rollback distance: a clean process restores a state at most
		// one interval old; a dirty one restores its most recent
		// non-contaminated state, bounded by the current contamination
		// epoch (which opens at the last arrival of a dirty message
		// after a validation — validations average one per 20s here).
		// Either way the distance stays far below the fault time.
		if max := m.RollbackDistance.Max(); max > 47 {
			t.Fatalf("node %v: rollback distance %v exceeds the epoch bound", node, max)
		}
	}
}

func TestRepeatedHardwareFaults(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 19)
	s := newSystem(t, cfg)
	s.Start()
	for i := 0; i < 5; i++ {
		s.RunFor(35)
		if err := s.InjectHardwareFault(msg.NodeID(1 + i%3)); err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
	}
	s.RunFor(30)
	s.Quiesce()
	mustHealthy(t, s)
	if !s.ReplicasConverged() {
		t.Fatal("replicas diverged after repeated faults")
	}
	if s.Metrics().RollbackDistance.N() != 15 {
		t.Fatalf("samples = %d, want 15", s.Metrics().RollbackDistance.N())
	}
}

func TestSoftwareFaultRecovery(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 23)
	cfg.TraceEnabled = true
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(50))
	s.ActivateSoftwareFault()
	s.RunUntil(vtime.FromSeconds(300))
	mustHealthy(t, s)

	if !s.Process(msg.P1Act).Failed() {
		t.Fatal("P1act should have been demoted (external rate 0.05/s over 250s)")
	}
	if !s.Process(msg.P1Sdw).Promoted() {
		t.Fatal("shadow should have taken over")
	}
	if s.ActiveC1() != msg.P1Sdw {
		t.Fatal("ActiveC1 should be the promoted shadow")
	}
	s.Quiesce()
	// After recovery, no surviving state is corrupted.
	if s.Process(msg.P1Sdw).State.Corrupted {
		t.Fatal("promoted shadow state is corrupted")
	}
	if s.Process(msg.P2).State.Corrupted {
		t.Fatal("P2 state is corrupted after recovery")
	}
	if s.Metrics().SWRecoveries != 1 {
		t.Fatalf("SWRecoveries = %d", s.Metrics().SWRecoveries)
	}
}

func TestSoftwareThenHardwareFault(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 29)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(50))
	s.ActivateSoftwareFault()
	s.RunUntil(vtime.FromSeconds(300))
	if !s.Process(msg.P1Sdw).Promoted() {
		t.Fatal("AT did not fire in the window for this seed")
	}
	if err := s.InjectHardwareFault(3); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(vtime.FromSeconds(400))
	s.Quiesce()
	mustHealthy(t, s)
	if s.Process(msg.P2).State.Corrupted {
		t.Fatal("P2 corrupted after combined recovery")
	}
}

func TestHardwareThenSoftwareFaultCoordinated(t *testing.T) {
	// The headline capability: a software error detected after a hardware
	// rollback remains recoverable, because stable checkpoints capture
	// non-contaminated states.
	cfg := DefaultConfig(Coordinated, 31)
	cfg.Workload2.ExternalRate = 0 // P2 never self-validates
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(55))
	if err := s.InjectHardwareFault(3); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5)
	s.ActivateSoftwareFault()
	s.RunUntil(vtime.FromSeconds(400))
	mustHealthy(t, s)
	if !s.Process(msg.P1Sdw).Promoted() {
		t.Fatal("AT did not fire in the window for this seed")
	}
	s.Quiesce()
	if s.Process(msg.P2).State.Corrupted {
		t.Fatal("P2 corrupted: software recovery after hardware rollback failed")
	}
}

func TestNaiveCombinationSavesDirtyStableContent(t *testing.T) {
	// Figure 4(a): under the naive combination, a stable checkpoint can
	// capture a potentially contaminated state.
	cfg := DefaultConfig(Naive, 37)
	cfg.Workload1.ExternalRate = 0.01 // long contaminated intervals
	cfg.Workload2.ExternalRate = 0
	s := newSystem(t, cfg)
	s.Start()
	dirtyFound := 0
	for step := 0; step < 60 && dirtyFound == 0; step++ {
		s.RunFor(11)
		line, err := s.StableLine()
		if err != nil {
			continue
		}
		dirtyFound += invariant.Count(line.Check(), invariant.DirtyStableContent)
	}
	if dirtyFound == 0 {
		t.Fatal("naive combination never saved a contaminated stable checkpoint in 660s")
	}
}

// TestDirtyRoundLeavesVolatileCheckpointAlone pins tb.Host's ownership
// contract: a dirty process's stable round writes its most recent volatile
// checkpoint relabelled a clean stable one, so a host that relabelled the
// slot itself instead of its scratch copy would find its volatile slot
// rewritten. After every dirty round the stored checkpoints must still read
// their own Kind and Dirty.
func TestDirtyRoundLeavesVolatileCheckpointAlone(t *testing.T) {
	cfg := DefaultConfig(Coordinated, 37)
	cfg.Workload1.ExternalRate = 0.01 // long contaminated intervals
	cfg.Workload2.ExternalRate = 0
	cfg.TraceEnabled = true
	s := newSystem(t, cfg)
	s.Start()
	type seen struct {
		kind  checkpoint.Kind
		dirty bool
	}
	stored := map[*checkpoint.Checkpoint]seen{}
	procs := []msg.ProcID{msg.P1Act, msg.P1Sdw, msg.P2}
	for step := 0; step < 300; step++ {
		for _, id := range procs {
			if err := s.Inspect(id, func(p *mdcd.Process, _ *tb.Checkpointer) {
				if v, ok := p.Volatile.Latest(); ok {
					if _, ok := stored[v]; !ok {
						stored[v] = seen{v.Kind, v.Dirty}
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.RunFor(1)
		for v, was := range stored {
			if v.Kind == checkpoint.Stable || v.Kind != was.kind || v.Dirty != was.dirty {
				t.Fatalf("after %d s: a stored volatile checkpoint of %v reads kind %v dirty %v, stored as %v dirty %v",
					step+1, v.Proc, v.Kind, v.Dirty, was.kind, was.dirty)
			}
		}
	}
	dirtyRounds := 0
	for _, e := range s.Recorder().ByKind(trace.StableBegun) {
		if e.Note == "dirty=true" {
			dirtyRounds++
		}
	}
	if dirtyRounds == 0 {
		t.Fatal("no stable round began with a dirty process in 300 s")
	}
}

func TestNaiveHardwareThenSoftwareFaultUnrecoverable(t *testing.T) {
	// The consequence of Figure 4(a): rolling back onto a contaminated
	// stable checkpoint leaves a later software error unrecoverable.
	cfg := DefaultConfig(Naive, 41)
	cfg.Workload1.ExternalRate = 0.01
	cfg.Workload2.ExternalRate = 0
	s := newSystem(t, cfg)
	s.Start()
	// Find a moment where P2's stable content is dirty, then crash.
	for step := 0; step < 100; step++ {
		s.RunFor(11)
		line, err := s.StableLine()
		if err != nil {
			continue
		}
		if c := line.Ckpts[msg.P2]; c != nil && c.Dirty {
			break
		}
	}
	line, err := s.StableLine()
	if err != nil || !line.Ckpts[msg.P2].Dirty {
		t.Fatal("no dirty stable checkpoint materialized for this seed")
	}
	if err := s.InjectHardwareFault(3); err != nil {
		t.Fatal(err)
	}
	if !s.Process(msg.P2).Dirty() {
		t.Fatal("P2 should restore a dirty state")
	}
	s.ActivateSoftwareFault()
	s.RunFor(600)
	if failed, why := s.Failed(); !failed {
		t.Fatal("naive combination should be unable to recover the software error")
	} else if s.Metrics().UnrecoverableSW != 1 {
		t.Fatalf("UnrecoverableSW = %d (%s)", s.Metrics().UnrecoverableSW, why)
	}
}

func TestWriteThroughCommitsOnValidation(t *testing.T) {
	cfg := DefaultConfig(WriteThrough, 43)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(200))
	mustHealthy(t, s)
	for _, id := range msg.Processes() {
		if s.Checkpointer(id).Stable.Commits() == 0 {
			t.Fatalf("%v committed no write-through checkpoints", id)
		}
	}
	// Write-through recovery works, but its rollback distance is governed
	// by the validation rate, not the TB interval.
	if err := s.InjectHardwareFault(2); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(vtime.FromSeconds(260))
	s.Quiesce()
	mustHealthy(t, s)
	if !s.ReplicasConverged() {
		t.Fatal("write-through replicas diverged after recovery")
	}
}

func TestTBOnlyScheme(t *testing.T) {
	cfg := DefaultConfig(TBOnly, 47)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(100))
	mustHealthy(t, s)
	if s.Process(msg.P1Sdw) != nil {
		t.Fatal("TB-only scheme should have no shadow")
	}
	if s.Checkpointer(msg.P1Act).Ndc() < 8 {
		t.Fatalf("Ndc = %d", s.Checkpointer(msg.P1Act).Ndc())
	}
	line, err := s.StableLine()
	if err != nil {
		t.Fatal(err)
	}
	if vs := line.Check(); len(vs) != 0 {
		t.Fatalf("TB-only violations: %v", vs)
	}
	if err := s.InjectHardwareFault(1); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(vtime.FromSeconds(150))
	mustHealthy(t, s)
}

func TestMDCDOnlyCannotRecoverHardware(t *testing.T) {
	cfg := DefaultConfig(MDCDOnly, 53)
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(60))
	if err := s.InjectHardwareFault(3); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.UnrecoverableHW == 0 {
		t.Fatal("MDCD alone should report unrecoverable hardware faults")
	}
	// Rollback distance is the whole computation.
	if m.RollbackDistance.Max() < 59 {
		t.Fatalf("genesis rollback distance = %v, want ≈60", m.RollbackDistance.Max())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, float64, int) {
		cfg := DefaultConfig(Coordinated, 99)
		s := newSystem(t, cfg)
		s.Start()
		s.RunUntil(vtime.FromSeconds(80))
		_ = s.InjectHardwareFault(2)
		s.RunUntil(vtime.FromSeconds(160))
		s.Quiesce()
		return s.Process(msg.P2).State.Hash,
			s.Metrics().RollbackDistance.Mean(),
			int(s.sim.Counters().Delivered)
	}
	h1, d1, n1 := run()
	h2, d2, n2 := run()
	if h1 != h2 || d1 != d2 || n1 != n2 {
		t.Fatalf("replay diverged: (%v,%v,%v) vs (%v,%v,%v)", h1, d1, n1, h2, d2, n2)
	}
}

func TestAcceptanceTestCoverageModel(t *testing.T) {
	// With imperfect coverage, the fault may escape several ATs before
	// detection; the system must still recover eventually.
	cfg := DefaultConfig(Coordinated, 59)
	cfg.Test = at.Oracle{Coverage: 0.5}
	cfg.Workload1.ExternalRate = 0.5
	s := newSystem(t, cfg)
	s.Start()
	s.RunUntil(vtime.FromSeconds(30))
	s.ActivateSoftwareFault()
	s.RunUntil(vtime.FromSeconds(600))
	mustHealthy(t, s)
	if !s.Process(msg.P1Sdw).Promoted() {
		t.Fatal("half-coverage AT should detect within ~300 externals")
	}
}
