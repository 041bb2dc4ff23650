package coord

import (
	"math/rand"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Randomized campaigns: across many seeds and randomized fault schedules,
// the coordinated scheme must keep its promises — the recovery line always
// satisfies validity-concerned consistency and recoverability, recovery
// never corrupts the high-confidence processes, replicas re-converge, and
// every run replays bit-identically from its seed.

// campaignConfig varies the environment harshly: wide clock skew and slow
// links magnify every window the protocol has to protect.
func campaignConfig(seed int64, rng *rand.Rand) Config {
	cfg := DefaultConfig(Coordinated, seed)
	cfg.Clock.MaxDeviation = time.Duration(1+rng.Intn(400)) * time.Millisecond
	cfg.Clock.DriftRate = []float64{0, 1e-6, 1e-5, 1e-4}[rng.Intn(4)]
	cfg.Net = NetConfig{
		MinDelay: time.Duration(1+rng.Intn(5)) * time.Millisecond,
		MaxDelay: time.Duration(20+rng.Intn(80)) * time.Millisecond,
	}
	cfg.CheckpointInterval = time.Duration(4+rng.Intn(8)) * time.Second
	cfg.Workload1.InternalRate = 0.5 + 4*rng.Float64()
	cfg.Workload1.ExternalRate = 0.05 + rng.Float64()
	cfg.Workload2.InternalRate = 0.5 + 4*rng.Float64()
	cfg.Workload2.ExternalRate = 0.05 + rng.Float64()
	return cfg
}

func TestRandomizedFaultCampaignPreservesInvariants(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed * 7717))
		cfg := campaignConfig(seed, rng)
		s := newSystem(t, cfg)
		s.Start()

		swAt := 100 + rng.Float64()*400
		swDone := false
		now := 0.0
		for i := 0; i < 6; i++ {
			step := 60 + rng.Float64()*120
			if !swDone && swAt > now && swAt < now+step {
				s.RunUntil(vtime.FromSeconds(swAt))
				s.ActivateSoftwareFault()
				swDone = true
			}
			now += step
			s.RunUntil(vtime.FromSeconds(now))
			node := msg.NodeID(1 + rng.Intn(3))
			if err := s.InjectHardwareFault(node); err != nil {
				t.Fatalf("seed %d fault %d: %v", seed, i, err)
			}
			mustHealthy(t, s)
			// The just-restored line and the line the NEXT fault
			// would use must both be sound.
			line, err := s.StableLine()
			if err != nil {
				continue // first complete round not re-established yet
			}
			if vs := line.Check(); len(vs) != 0 {
				t.Fatalf("seed %d after fault %d at %v: %v", seed, i, s.Engine().Now(), vs)
			}
		}
		s.RunFor(120)
		s.Quiesce()
		mustHealthy(t, s)
		if !s.ReplicasConverged() {
			t.Fatalf("seed %d: replicas diverged", seed)
		}
		// High-confidence processes end the run uncorrupted: either the
		// fault was detected and recovered, or its contamination never
		// survived a recovery into the trusted processes.
		if s.Process(msg.P2).State.Corrupted && s.Process(msg.P1Act).Failed() {
			t.Fatalf("seed %d: P2 corrupted after recovery", seed)
		}
		if p := s.Process(msg.P1Sdw); p.Promoted() && p.State.Corrupted {
			t.Fatalf("seed %d: promoted shadow corrupted", seed)
		}
	}
}

// Property: sampling the recovery line at arbitrary instants — including
// mid-blocking, mid-write, mid-recovery-epoch — never shows a violation
// under the coordinated scheme.
func TestLineSoundAtArbitraryInstants(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed * 31337))
		cfg := campaignConfig(seed, rng)
		s := newSystem(t, cfg)
		s.Start()
		now := 0.0
		for i := 0; i < 120; i++ {
			now += 0.5 + rng.Float64()*15
			s.RunUntil(vtime.FromSeconds(now))
			line, err := s.StableLine()
			if err != nil {
				continue
			}
			if vs := line.Check(); len(vs) != 0 {
				t.Fatalf("seed %d at %v: %v", seed, s.Engine().Now(), vs)
			}
		}
	}
}

// Property: the run is a pure function of (config, seed) — metrics, state
// digests and traffic counts all replay exactly.
func TestCampaignDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, uint64, float64, uint64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := campaignConfig(seed, rng)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		s.RunUntil(vtime.FromSeconds(123))
		_ = s.InjectHardwareFault(2)
		s.RunUntil(vtime.FromSeconds(260))
		s.ActivateSoftwareFault()
		s.RunUntil(vtime.FromSeconds(500))
		s.Quiesce()
		var sdwHash uint64
		if p := s.Process(msg.P1Sdw); p != nil {
			sdwHash = p.State.Hash
		}
		return s.Process(msg.P2).State.Hash, sdwHash,
			s.Metrics().RollbackDistance.Mean(), s.sim.Counters().Delivered
	}
	for seed := int64(2); seed <= 6; seed++ {
		a1, b1, c1, d1 := run(seed)
		a2, b2, c2, d2 := run(seed)
		if a1 != a2 || b1 != b2 || c1 != c2 || d1 != d2 {
			t.Fatalf("seed %d diverged: (%v %v %v %v) vs (%v %v %v %v)",
				seed, a1, b1, c1, d1, a2, b2, c2, d2)
		}
	}
}

// Property: under the naive combination the same campaign DOES violate the
// clean-content property — the checker has teeth.
func TestNaiveCampaignShowsViolations(t *testing.T) {
	dirty := 0
	for seed := int64(1); seed <= 6 && dirty == 0; seed++ {
		rng := rand.New(rand.NewSource(seed * 41))
		cfg := campaignConfig(seed, rng)
		cfg.Scheme = Naive
		s := newSystem(t, cfg)
		s.Start()
		for i := 0; i < 60; i++ {
			s.RunFor(cfg.CheckpointInterval.Seconds())
			line, err := s.StableLine()
			if err != nil {
				continue
			}
			dirty += invariant.Count(line.Check(), invariant.DirtyStableContent)
		}
	}
	if dirty == 0 {
		t.Fatal("naive campaign never tripped the checker — suspicious")
	}
}

// Property: hardware recovery is idempotent-safe under bursts — repeated
// faults in quick succession (including before the system fully re-settles)
// never corrupt the line.
func TestFaultBursts(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 97))
		cfg := campaignConfig(seed, rng)
		s := newSystem(t, cfg)
		s.Start()
		s.RunFor(4 * cfg.CheckpointInterval.Seconds())
		for i := 0; i < 4; i++ {
			// Faults spaced less than one checkpoint interval apart.
			s.RunFor(cfg.CheckpointInterval.Seconds() * (0.2 + 0.5*rng.Float64()))
			if err := s.InjectHardwareFault(msg.NodeID(1 + rng.Intn(3))); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		s.RunFor(60)
		s.Quiesce()
		mustHealthy(t, s)
		if !s.ReplicasConverged() {
			t.Fatalf("seed %d: replicas diverged after burst", seed)
		}
	}
}
