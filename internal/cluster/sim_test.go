package cluster

import (
	"reflect"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
)

// ringConfig builds an n-component ring cluster configuration (nodes =
// comps + guarded).
func ringConfig(comps, guarded int, seed int64, internalRate, externalRate float64) Config {
	return Config{
		Topology:           Ring(comps, guarded, internalRate, externalRate, at.Perfect()),
		Seed:               seed,
		MinDelay:           200 * time.Microsecond,
		MaxDelay:           2 * time.Millisecond,
		CheckpointInterval: 50 * time.Millisecond,
	}
}

// checkRun is the one post-run predicate every runtime must satisfy after a
// settled run: a clean membership-wide recovery line at least minRounds deep,
// the validation flow alive end to end (traffic, acceptance tests, passed-AT
// dissemination, stable commits), no software recovery, and per-node gossip
// fan-in inside the fanout·rounds bound. A chaos-free run must also have
// drained: every copy sent was delivered exactly once.
func checkRun(t *testing.T, cl *Cluster, minRounds uint64, chaosFree bool) {
	t.Helper()
	ins := cl.Inspect()
	if !ins.LineOK {
		t.Fatalf("no common committed round to sample (round=%d)", ins.Round)
	}
	if violations, _ := ins.Line.CheckDetailed(); len(violations) != 0 {
		t.Fatalf("round %d: %d recovery-line violations: %v", ins.Round, len(violations), violations)
	}
	if ins.Round < minRounds {
		t.Fatalf("recovery line at round %d, want ≥ %d", ins.Round, minRounds)
	}
	st := ins.Stats
	if st.MsgsSent == 0 || st.MsgsDelivered == 0 || st.AcksDelivered == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if st.ATsPassed == 0 || st.Validations == 0 || st.Gossip.Delivered == 0 {
		t.Fatalf("no validation flow (guarded actives are always suspect): ATs=%d validations=%d gossip=%d",
			st.ATsPassed, st.Validations, st.Gossip.Delivered)
	}
	if st.StableCommits == 0 {
		t.Fatal("no stable checkpoints committed")
	}
	if st.Recoveries != 0 {
		t.Fatalf("unexpected software recoveries: %d", st.Recoveries)
	}
	// The dissemination bound the gossip layer promises: per-node fan-in
	// stays O(fanout·rounds), not O(N).
	if st.MaxFanIn <= 0 || st.MaxFanIn > ins.FanInBound {
		t.Fatalf("MaxFanIn = %.2f, want in (0, %.0f]", st.MaxFanIn, ins.FanInBound)
	}
	if chaosFree && st.MsgsDelivered != st.MsgsSent {
		t.Fatalf("not drained: sent=%d delivered=%d", st.MsgsSent, st.MsgsDelivered)
	}
}

// TestRuntimeParity drives the same chaos-free 10-node ring through both
// runtime implementations and holds them to the same predicate.
func TestRuntimeParity(t *testing.T) {
	cfg := ringConfig(7, 3, 42, 120, 60) // 7 comps + 3 shadows = 10 nodes
	runtimes := map[string]func() (*Cluster, error){
		"sim": func() (*Cluster, error) {
			s, err := NewSim(cfg)
			if err != nil {
				return nil, err
			}
			return s.Cluster, nil
		},
		"live": func() (*Cluster, error) {
			lv, err := NewLive(cfg)
			if err != nil {
				return nil, err
			}
			return lv.Cluster, nil
		},
	}
	for name, build := range runtimes {
		t.Run(name, func(t *testing.T) {
			cl, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if got := cl.Nodes(); got != 10 {
				t.Fatalf("Nodes = %d, want 10", got)
			}
			cl.Start()
			cl.RunFor(600 * time.Millisecond)
			cl.Settle()
			checkRun(t, cl, uint64(cl.Nodes()), true)
			cl.Stop()
		})
	}
}

func TestSimTenNodeSoak(t *testing.T) {
	s, err := NewSim(ringConfig(7, 3, 42, 120, 60))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.Start()
	s.RunFor(1500 * time.Millisecond)
	s.Settle()
	checkRun(t, s.Cluster, 1, true)

	// Shadows reclaim log entries as validations arrive: the suppressed log
	// must stay far below the total emission count.
	for c, sid := range s.asg.Shadow {
		sdw := s.nodes[sid]
		if len(sdw.log) > int(sdw.ownSN) && sdw.ownSN > 0 {
			t.Fatalf("C%d shadow log unpruned: %d entries at ownSN %d", c, len(sdw.log), sdw.ownSN)
		}
		if sdw.valid[sdw.slot] == 0 {
			t.Fatalf("C%d shadow never learned a validation of its own stream", c)
		}
	}
	s.Stop()
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		s, err := NewSim(ringConfig(46, 4, 7, 60, 30)) // 50 nodes
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		s.Start()
		s.RunFor(time.Second)
		s.Settle()
		st := s.Stats()
		s.Stop()
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different transcripts:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.MsgsSent == 0 || a.ATsPassed == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

func TestSimCorruptionRecoveryAndTakeover(t *testing.T) {
	s, err := NewSim(ringConfig(7, 3, 11, 120, 60))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.Start()
	s.RunFor(500 * time.Millisecond)
	if !s.CorruptActive(1) {
		t.Fatal("CorruptActive(1) found no live node")
	}
	s.RunFor(1500 * time.Millisecond)
	s.Settle()

	st := s.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want exactly 1 (detection, then a clean system)", st.Recoveries)
	}
	if st.Takeovers == 0 {
		t.Fatal("corrupted guarded active was not demoted")
	}
	act := s.nodes[s.asg.Active[1]]
	sdw := s.nodes[s.asg.Shadow[1]]
	if !act.failed.Load() || !sdw.promoted {
		t.Fatalf("C1 demotion state: active.failed=%v shadow.promoted=%v", act.failed.Load(), sdw.promoted)
	}
	if live := s.liveNode(1); live != sdw {
		t.Fatalf("liveNode(1) = %v, want the promoted shadow", live)
	}
	if sdw.state.Corrupted {
		t.Fatal("promoted shadow still corrupted after recovery")
	}
	for _, id := range s.asg.Nodes {
		if n := s.nodes[id]; !n.failed.Load() && n.state.Corrupted {
			t.Fatalf("node %d remains corrupted after recovery", id)
		}
	}

	round, violations, _, err := s.CheckInvariants()
	if err != nil {
		t.Fatalf("CheckInvariants after recovery: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("round %d: violations after recovery: %v", round, violations)
	}
	s.Stop()
}

func TestSimHundredNodeChaosSoak(t *testing.T) {
	cfg := ringConfig(93, 7, 1234, 40, 20) // 100 nodes
	cfg.Chaos = chaos.Spec{
		Seed:          5,
		Drop:          0.01,
		Duplicate:     0.01,
		MaxExtraDelay: 500 * time.Microsecond,
		Partitions: []chaos.Partition{{
			A: 12, B: 30, Bidirectional: true,
			Start: 300 * time.Millisecond, End: 600 * time.Millisecond,
		}},
	}
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	if got := s.Nodes(); got != 100 {
		t.Fatalf("Nodes = %d, want 100", got)
	}
	s.Start()
	s.RunFor(1500 * time.Millisecond)
	s.Settle()
	checkRun(t, s.Cluster, 1, false)
	if s.Stats().DupsDiscarded == 0 {
		t.Fatal("duplicate chaos produced no dedup discards")
	}
	s.Stop()
}

func TestSimResyncBeaconReachesMembership(t *testing.T) {
	s, err := NewSim(ringConfig(7, 3, 9, 120, 60))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.Start()
	s.RunFor(200 * time.Millisecond)
	base := s.Stats().Resyncs
	s.requestResync(s.nodes[BaseNodeID])
	s.RunFor(500 * time.Millisecond)
	st := s.Stats()
	if st.ResyncBeacons == 0 {
		t.Fatal("no beacon originated")
	}
	if got := st.Resyncs - base; got < uint64(s.Nodes()) {
		t.Fatalf("resyncs after beacon = %d, want ≥ %d (whole membership)", got, s.Nodes())
	}
	s.Stop()
}

func TestStaleValidationDiscarded(t *testing.T) {
	s, err := NewSim(ringConfig(4, 2, 3, 100, 50))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	n := s.nodes[s.asg.Shadow[1]] // valid[n.slot] below is C1's entry
	payload := encodePassedAT(0, 1, s.comps, sparseVec(s.comps, map[gmdcd.ComponentID]uint64{1: 5}))

	s.epoch = 3 // a recovery has flushed epoch 0
	s.onGossipDeliver(n, gossip.Update{Kind: updPassedAT, Payload: payload})
	if got := s.Stats().StaleValidations; got != 1 {
		t.Fatalf("StaleValidations = %d, want 1", got)
	}
	if n.valid[n.slot] != 0 {
		t.Fatalf("stale validation applied: valid[1] = %d", n.valid[n.slot])
	}

	s.epoch = 0 // current epoch: the same payload now applies
	s.onGossipDeliver(n, gossip.Update{Kind: updPassedAT, Payload: payload})
	if n.valid[n.slot] != 5 {
		t.Fatalf("valid[1] = %d, want 5", n.valid[n.slot])
	}
	if got := s.Stats().Validations; got != 1 {
		t.Fatalf("Validations = %d, want 1", got)
	}
}
