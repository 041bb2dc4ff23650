package cluster

import (
	"math/rand"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// The generalized-MDCD behaviours below run at the root MultiSystem façade's
// scale: 2 internal and 0.5 external events per second per component, delays
// in [1ms, 20ms].

// chainTopology builds C1 → C2 → … → Cn (each sends to the next; the last
// sends back to the first so influence circulates), with the given guarded
// set.
func chainTopology(n int, guarded ...int) gmdcd.Topology {
	topo := gmdcd.Topology{Test: at.Perfect()}
	for i := 1; i <= n; i++ {
		topo.Components = append(topo.Components, gmdcd.ComponentSpec{
			ID:           gmdcd.ComponentID(i),
			Peers:        []gmdcd.ComponentID{gmdcd.ComponentID(i%n + 1)},
			InternalRate: 2,
			ExternalRate: 0.5,
		})
	}
	for _, g := range guarded {
		topo.Components[g-1].Guarded = true
	}
	return topo
}

func protocolSim(t *testing.T, topo gmdcd.Topology, seed int64) *Sim {
	t.Helper()
	s, err := NewSim(Config{
		Topology: topo,
		Seed:     seed,
		MinDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond,
		// Checkpoints and anti-entropy paced to the slow workload, so a
		// 500-second campaign run stays a few thousand rounds.
		CheckpointInterval: time.Second,
		GossipInterval:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// noSurvivorCorrupted asserts no live embodiment is ground-truth corrupted.
func noSurvivorCorrupted(t *testing.T, s *Sim) {
	t.Helper()
	for _, c := range s.asg.Order {
		if n := s.liveNode(c); n != nil && n.state.Corrupted {
			t.Errorf("C%d corrupted after recovery (takeovers=%d)", c, s.Stats().Takeovers)
		}
	}
}

func promoted(s *Sim, c gmdcd.ComponentID) bool {
	r, ok := s.Active(c)
	return ok && r.Promoted
}

func TestGeneralizedProtocol(t *testing.T) {
	const sec = time.Second
	cases := []struct {
		name string
		topo gmdcd.Topology
		seed int64
		run  func(t *testing.T, s *Sim)
	}{
		{
			// C1 (guarded) → C2 → C3 → C1: C3 never hears from C1 directly,
			// yet must accumulate C1-influence through C2.
			name: "influence propagates transitively", topo: chainTopology(3, 1), seed: 1,
			run: func(t *testing.T, s *Sim) {
				s.RunFor(30 * sec)
				c3, c1 := s.liveNode(3), s.comps.of(1)
				if c3.influence[c1] == 0 {
					t.Fatal("C1's influence never reached C3 transitively")
				}
				// Validations (C1's ATs) cover the influence; C3 ends mostly clean.
				s.Settle()
				if c3.influence[c1] > c3.valid[c1]+50 {
					t.Fatalf("validation knowledge not propagating: influence %d valid %d", c3.influence[c1], c3.valid[c1])
				}
			},
		},
		{
			name: "Type-1 checkpoints at contamination boundaries", topo: chainTopology(3, 1), seed: 2,
			run: func(t *testing.T, s *Sim) {
				s.RunFor(60 * sec)
				if s.liveNode(2).ckptCount == 0 {
					t.Fatal("C2 (direct receiver of the guarded stream) never checkpointed")
				}
				if s.liveNode(3).ckptCount == 0 {
					t.Fatal("C3 (transitive receiver) never checkpointed")
				}
			},
		},
		{
			name: "single guarded recovery and takeover", topo: chainTopology(4, 2), seed: 3,
			run: func(t *testing.T, s *Sim) {
				s.RunFor(20 * sec)
				s.CorruptActive(2)
				s.RunFor(120 * sec)
				s.Settle()
				if !promoted(s, 2) {
					t.Fatal("shadow of C2 did not take over")
				}
				if st := s.Stats(); st.Recoveries == 0 || st.Takeovers != 1 {
					t.Fatalf("stats = %+v", st)
				}
				noSurvivorCorrupted(t, s)
			},
		},
		{
			// C1 and C3 guarded in a 4-chain; C1's fault must demote only C1.
			// The unguarded components run no externals, so detection happens
			// at the faulty active's own acceptance test — the precise-blame
			// path.
			name: "two guarded components, independent faults", seed: 5,
			topo: func() gmdcd.Topology {
				topo := chainTopology(4, 1, 3)
				for i := range topo.Components {
					if !topo.Components[i].Guarded {
						topo.Components[i].ExternalRate = 0
					}
				}
				return topo
			}(),
			run: func(t *testing.T, s *Sim) {
				s.RunFor(20 * sec)
				s.CorruptActive(1)
				s.RunFor(120 * sec)
				if !promoted(s, 1) {
					t.Fatal("C1's shadow did not take over")
				}
				if promoted(s, 3) {
					t.Fatal("C3 was wrongly demoted by C1's fault")
				}
				// C3's guarded operation continues: a later fault there recovers too.
				s.CorruptActive(3)
				s.RunFor(120 * sec)
				s.Settle()
				if !promoted(s, 3) {
					t.Fatal("C3's shadow did not take over after its own fault")
				}
				noSurvivorCorrupted(t, s)
			},
		},
		{
			name: "shadow and active converge; unguarded has no shadow", topo: chainTopology(3, 1), seed: 7,
			run: func(t *testing.T, s *Sim) {
				if _, ok := s.Shadow(2); ok {
					t.Fatal("unguarded component should have no shadow")
				}
				s.RunFor(40 * sec)
				s.Settle()
				if _, ok := s.Shadow(1); !ok {
					t.Fatal("guarded component should have a shadow")
				}
				if a, b := s.liveNode(1).state.Hash, s.nodes[s.asg.Shadow[1]].state.Hash; a != b {
					t.Fatalf("replicas diverged: %x vs %x", a, b)
				}
			},
		},
		{
			name: "Accept ends guarded operation", topo: chainTopology(3, 1), seed: 9,
			run: func(t *testing.T, s *Sim) {
				s.RunFor(30 * sec)
				if !s.Accept(1) {
					t.Fatal("Accept returned false during guarded operation")
				}
				if s.Accept(1) {
					t.Fatal("second Accept should be a no-op")
				}
				if _, ok := s.Shadow(1); ok {
					t.Fatal("shadow should be retired")
				}
				// The accepted component's emissions no longer contaminate
				// anyone: once the suspicion already circulating has been
				// validated away, downstream processes stop establishing
				// Type-1 checkpoints and end the run clean.
				s.RunFor(30 * sec)
				ck2 := s.liveNode(2).ckptCount
				s.RunFor(60 * sec)
				s.Settle()
				if got := s.liveNode(2).ckptCount; got != ck2 {
					t.Fatalf("C2 kept checkpointing after acceptance: %d → %d", ck2, got)
				}
				for c := gmdcd.ComponentID(1); c <= 3; c++ {
					if r, _ := s.Active(c); r.Dirty {
						t.Fatalf("C%d still contaminated after acceptance", c)
					}
				}
				if _, violations, _, err := s.CheckInvariants(); err != nil || len(violations) != 0 {
					t.Fatalf("recovery line after acceptance: err=%v violations=%v", err, violations)
				}
			},
		},
		{
			name: "Accept after takeover is a no-op", topo: chainTopology(3, 1), seed: 10,
			run: func(t *testing.T, s *Sim) {
				s.RunFor(20 * sec)
				s.CorruptActive(1)
				s.RunFor(120 * sec)
				if !promoted(s, 1) {
					t.Fatal("takeover did not complete")
				}
				if s.Accept(1) {
					t.Fatal("Accept after takeover should be a no-op")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := protocolSim(t, tc.topo, tc.seed)
			s.Start()
			tc.run(t, s)
			s.Stop()
		})
	}
}

// Property: across random topologies (3–7 components, 1–3 guarded, random
// edges) with a fault in every guarded component, recovery always yields
// uncorrupted survivors and a takeover per fault.
func TestRandomTopologyCampaign(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		n := 3 + rng.Intn(5)
		guarded := map[int]bool{1 + rng.Intn(n): true}
		for len(guarded) < 1+rng.Intn(3) {
			guarded[1+rng.Intn(n)] = true
		}
		topo := gmdcd.Topology{Test: at.Perfect()}
		for i := 1; i <= n; i++ {
			// Ring edge for connectivity plus a random chord.
			peers := []gmdcd.ComponentID{gmdcd.ComponentID(i%n + 1)}
			if extra := gmdcd.ComponentID(1 + rng.Intn(n)); int(extra) != i && extra != peers[0] {
				peers = append(peers, extra)
			}
			topo.Components = append(topo.Components, gmdcd.ComponentSpec{
				ID: gmdcd.ComponentID(i), Guarded: guarded[i], Peers: peers,
				InternalRate: 1 + 2*rng.Float64(), ExternalRate: 0.3 + rng.Float64(),
			})
		}
		s := protocolSim(t, topo, seed)
		s.Start()
		s.RunFor(20 * time.Second)
		faults := 0
		for i := 1; i <= n; i++ {
			if guarded[i] {
				s.CorruptActive(gmdcd.ComponentID(i))
				s.RunFor(150 * time.Second)
				faults++
			}
		}
		s.RunFor(60 * time.Second)
		s.Settle()
		if got := s.Stats().Takeovers; got < faults {
			t.Fatalf("seed %d: %d takeovers for %d faults", seed, got, faults)
		}
		noSurvivorCorrupted(t, s)
		s.Stop()
	}
}
