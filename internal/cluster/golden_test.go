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
// — was captured at commit 6c8896b, when gossip became newest-once (the
// values of 19d44dd, from before the simulated and live runners were merged
// into one runner over the runtime seam, held until then), and is never
// edited: the simulator is transcript-deterministic, so a refactor that keeps
// behaviour keeps these numbers exactly, and one that changes them changed
// behaviour.
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
			steps: 79231,
			want: Stats{ATsPassed: 170, MsgsSent: 4963, MsgsDelivered: 4959, AcksDelivered: 4953, HeldMessages: 72,
				Validations: 16697, StableCommits: 1900, StableReplaces: 11,
				Gossip: gossip.Stats{Originated: 170, PacketsSent: 55469, PacketsRecv: 55452, UpdatesRecv: 49025,
					Delivered: 16697, Duplicates: 32328, DigestsSent: 7125, DigestsRecv: 7125, Repairs: 1349},
				MaxFanIn: 3.1176470588235294},
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
			steps: 8849,
			want: Stats{ATsPassed: 58, Recoveries: 1, Takeovers: 1, Rollbacks: 6, RollForwards: 3, ForcedRollbacks: 11,
				MsgsSent: 1253, MsgsDelivered: 1142, AcksDelivered: 1142, HeldMessages: 34,
				Validations: 476, StableCommits: 451, StableReplaces: 10,
				Gossip: gossip.Stats{Originated: 58, PacketsSent: 3052, PacketsRecv: 2771, UpdatesRecv: 1440,
					Delivered: 476, Duplicates: 964, DigestsSent: 1449, DigestsRecv: 1332, Repairs: 18},
				MaxFanIn: 3.103448275862069},
		},
		{
			name: "spec-140",
			cfg: specConfig(140, 7, 3, 50, 5, chaos.Spec{Drop: 0.02, Duplicate: 0.02, MaxExtraDelay: time.Millisecond,
				Partitions: []chaos.Partition{{A: 10, B: 12, Bidirectional: true, Start: 200 * time.Millisecond, End: 400 * time.Millisecond}}}),
			drive: specDrive(900 * time.Millisecond),
			steps: 4232,
			want: Stats{ATsPassed: 31, MsgsSent: 450, MsgsDelivered: 466, AcksDelivered: 476, HeldMessages: 21, DupsDiscarded: 16,
				Validations: 278, StableCommits: 240,
				Gossip: gossip.Stats{Originated: 31, PacketsSent: 1708, PacketsRecv: 1664, UpdatesRecv: 895,
					Delivered: 278, Duplicates: 617, DigestsSent: 781, DigestsRecv: 769, Repairs: 6},
				MaxFanIn: 3.4516129032258065},
		},
		{
			name:  "spec-150",
			cfg:   specConfig(150, 46, 4, 40, 10, chaos.Spec{}),
			drive: specDrive(time.Second, 500*time.Millisecond),
			steps: 24367,
			want: Stats{ATsPassed: 48, Recoveries: 1, Takeovers: 1, Rollbacks: 9, RollForwards: 40, ForcedRollbacks: 49,
				MsgsSent: 2006, MsgsDelivered: 1985, AcksDelivered: 1983, HeldMessages: 51,
				Validations: 2301, StaleValidations: 8, StableCommits: 1284, StableReplaces: 4,
				Gossip: gossip.Stats{Originated: 48, PacketsSent: 11231, PacketsRecv: 11100, UpdatesRecv: 6919,
					Delivered: 2309, Duplicates: 4610, DigestsSent: 4272, DigestsRecv: 4201, Repairs: 160},
				MaxFanIn: 3.4583333333333335},
		},
		{
			name: "spec-160",
			cfg: specConfig(160, 93, 7, 20, 5, chaos.Spec{Drop: 0.01, Duplicate: 0.01, MaxExtraDelay: 500 * time.Microsecond,
				Partitions: []chaos.Partition{{A: 18, B: 20, Bidirectional: true, Start: 300 * time.Millisecond, End: 500 * time.Millisecond}}}),
			drive: specDrive(800 * time.Millisecond),
			steps: 36546,
			want: Stats{ATsPassed: 43, MsgsSent: 1605, MsgsDelivered: 1617, AcksDelivered: 1628, HeldMessages: 49, DupsDiscarded: 12,
				Validations: 4253, StableCommits: 2200, StableReplaces: 6,
				Gossip: gossip.Stats{Originated: 43, PacketsSent: 19924, PacketsRecv: 19718, UpdatesRecv: 12481,
					Delivered: 4253, Duplicates: 8228, DigestsSent: 7358, DigestsRecv: 7282, Repairs: 326},
				MaxFanIn: 3.511627906976744},
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
			got := s.Stats()
			got.GossipDropped = 0 // the goldens predate the count; TestGossipDropsCountedOnce checks it
			if got != tc.want {
				t.Errorf("stats diverged from the parent commit:\n got %+v\nwant %+v", got, tc.want)
			}
			// In-memory stable storage fails a commit only on a
			// protocol-ordering error, so tb's commit retries never fire.
			for _, n := range s.nodes {
				if n != nil && n.cp.Stats().CommitRetries != 0 {
					t.Errorf("node %v retried %d commits", n.id, n.cp.Stats().CommitRetries)
				}
			}
		})
	}
}
