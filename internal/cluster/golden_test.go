package cluster

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// specConfig is the Config internal/scenario lowers a committed cluster spec
// to (scenario engine defaults included; the chaos seed is the spec seed).
func specConfig(seed int64, comps, guarded int, internalRate, externalRate float64, ch chaos.Spec) Config {
	ch.Seed = seed
	return Config{
		Topology:           Ring(comps, guarded, internalRate, externalRate, at.Perfect()),
		Seed:               seed,
		MinDelay:           200 * time.Microsecond,
		MaxDelay:           2 * time.Millisecond,
		CheckpointInterval: 50 * time.Millisecond,
		Clock:              vtime.ClockConfig{MaxDeviation: 2 * time.Millisecond, DriftRate: 1e-4},
		Chaos:              ch,
	}
}

// specDrive replays scenario.RunClusterSim's drive: scheduled software faults
// in component 1, the workload window, the settle window, Stop.
func specDrive(d time.Duration, faults ...time.Duration) func(*Sim) {
	return func(s *Sim) {
		for _, f := range faults {
			s.Engine().After(f, func() { s.CorruptActive(1) })
		}
		s.Start()
		s.RunFor(d)
		s.Settle()
		s.Stop()
	}
}

// TestGoldenTranscripts is the cluster's equivalence oracle. Every expected
// value below — the event engine's step count and the full Stats of each run
// — was captured at commit 19d44dd, before the simulated and live runners
// were merged into one runner over the runtime seam, and is never edited: the
// simulator is transcript-deterministic, so a refactor that keeps behaviour
// keeps these numbers exactly, and one that changes them changed behaviour.
func TestGoldenTranscripts(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		drive func(*Sim)
		steps uint64
		want  Stats
	}{
		{
			name:  "ring-100",
			cfg:   Config{Topology: Ring(70, 30, 50, 5, at.Perfect()), Seed: 1},
			drive: func(s *Sim) { s.Start(); s.RunFor(time.Second) },
			steps: 83255,
			want: Stats{ATsPassed: 184, MsgsSent: 4960, MsgsDelivered: 4955, AcksDelivered: 4952, HeldMessages: 79,
				Validations: 18124, StableCommits: 1900, StableReplaces: 17,
				Gossip: gossip.Stats{Originated: 184, PacketsSent: 59493, PacketsRecv: 59470, UpdatesRecv: 52962,
					Delivered: 18124, Duplicates: 34838, DigestsSent: 7132, DigestsRecv: 7132, Repairs: 1389},
				MaxFanIn: 3.1684782608695654},
		},
		{
			name: "ring-10-fault",
			cfg:  Config{Topology: Ring(7, 3, 50, 5, at.Perfect()), Seed: 11},
			drive: func(s *Sim) {
				s.Start()
				s.RunFor(500 * time.Millisecond)
				s.CorruptActive(1)
				s.RunFor(2 * time.Second)
			},
			steps: 9235,
			want: Stats{ATsPassed: 64, Recoveries: 1, Takeovers: 1, Rollbacks: 7, RollForwards: 2, ForcedRollbacks: 9,
				MsgsSent: 1327, MsgsDelivered: 1230, AcksDelivered: 1230, HeldMessages: 19,
				Validations: 518, StableCommits: 452, StableReplaces: 4,
				Gossip: gossip.Stats{Originated: 64, PacketsSent: 3212, PacketsRecv: 2907, UpdatesRecv: 1584,
					Delivered: 518, Duplicates: 1066, DigestsSent: 1452, DigestsRecv: 1324, Repairs: 16},
				MaxFanIn: 2.984375},
		},
		{
			name: "spec-140",
			cfg: specConfig(140, 7, 3, 50, 5, chaos.Spec{Drop: 0.02, Duplicate: 0.02, MaxExtraDelay: time.Millisecond,
				Partitions: []chaos.Partition{{A: 10, B: 12, Bidirectional: true, Start: 200 * time.Millisecond, End: 400 * time.Millisecond}}}),
			drive: specDrive(900 * time.Millisecond),
			steps: 4255,
			want: Stats{ATsPassed: 32, MsgsSent: 441, MsgsDelivered: 454, AcksDelivered: 463, HeldMessages: 17, DupsDiscarded: 13,
				Validations: 288, StableCommits: 240, StableReplaces: 2,
				Gossip: gossip.Stats{Originated: 32, PacketsSent: 1756, PacketsRecv: 1708, UpdatesRecv: 946,
					Delivered: 288, Duplicates: 658, DigestsSent: 784, DigestsRecv: 765, Repairs: 5},
				MaxFanIn: 3.46875},
		},
		{
			name:  "spec-150",
			cfg:   specConfig(150, 46, 4, 40, 10, chaos.Spec{}),
			drive: specDrive(time.Second, 500*time.Millisecond),
			steps: 26287,
			want: Stats{ATsPassed: 58, Recoveries: 1, Takeovers: 1, Rollbacks: 6, RollForwards: 43, ForcedRollbacks: 49,
				MsgsSent: 2085, MsgsDelivered: 2063, AcksDelivered: 2061, HeldMessages: 52,
				Validations: 2768, StaleValidations: 49, StableCommits: 1284, StableReplaces: 11,
				Gossip: gossip.Stats{Originated: 58, PacketsSent: 12860, PacketsRecv: 12742, UpdatesRecv: 8512,
					Delivered: 2817, Duplicates: 5695, DigestsSent: 4312, DigestsRecv: 4256, Repairs: 198},
				MaxFanIn: 3.5517241379310347},
		},
		{
			name: "spec-160",
			cfg: specConfig(160, 93, 7, 20, 5, chaos.Spec{Drop: 0.01, Duplicate: 0.01, MaxExtraDelay: 500 * time.Microsecond,
				Partitions: []chaos.Partition{{A: 18, B: 20, Bidirectional: true, Start: 300 * time.Millisecond, End: 500 * time.Millisecond}}}),
			drive: specDrive(800 * time.Millisecond),
			steps: 34562,
			want: Stats{ATsPassed: 36, MsgsSent: 1615, MsgsDelivered: 1629, AcksDelivered: 1638, HeldMessages: 54, DupsDiscarded: 14,
				Validations: 3564, StableCommits: 2200, StableReplaces: 5,
				Gossip: gossip.Stats{Originated: 36, PacketsSent: 17847, PacketsRecv: 17673, UpdatesRecv: 10502,
					Delivered: 3564, Duplicates: 6938, DigestsSent: 7331, DigestsRecv: 7253, Repairs: 294},
				MaxFanIn: 3.6944444444444446},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSim(tc.cfg)
			if err != nil {
				t.Fatalf("NewSim: %v", err)
			}
			tc.drive(s)
			if got := s.Engine().Steps(); got != tc.steps {
				t.Errorf("engine steps = %d, want %d", got, tc.steps)
			}
			if got := s.Stats(); got != tc.want {
				t.Errorf("stats diverged from the parent commit:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
