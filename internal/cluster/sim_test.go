package cluster

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
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

// TestLaggingNodeKeepsLineSampleable stalls one node's checkpoint timer for
// twelve intervals, so its round numbers lag the membership's for good. The
// others keep every round from the lagger's newest up, so a common round
// still exists and samples clean, and they keep no more than that.
func TestLaggingNodeKeepsLineSampleable(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s, err := NewSim(ringConfig(7, 3, seed, 120, 60))
		if err != nil {
			t.Fatal(err)
		}
		lagger := s.nodes[s.asg.Active[2]]
		stall := []msg.ProcID{lagger.id}
		s.Start()
		s.RunFor(200 * time.Millisecond)
		s.hold(stall)
		lagger.cp.Stop()
		s.release(stall)
		s.RunFor(600 * time.Millisecond) // 12 Δ
		s.hold(stall)
		lagger.cp.Start()
		s.release(stall)
		s.RunFor(500 * time.Millisecond)
		s.Settle()

		round, violations, absorbed, err := s.CheckInvariants()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(violations) != 0 {
			t.Fatalf("seed %d: round %d: %d violations: %v", seed, round, len(violations), violations)
		}
		t.Logf("seed %d: line at round %d, %d dedup-absorbed gaps", seed, round, len(absorbed))
		for _, id := range s.asg.Nodes {
			n := s.nodes[id]
			if n == lagger {
				continue
			}
			held := uint64(0)
			for r := uint64(1); r <= n.cp.Ndc(); r++ {
				if _, ok, _ := n.cp.Stable.Round(r); ok {
					held++
				}
			}
			if lag := n.cp.Ndc() - lagger.cp.Ndc(); held > lag+2 {
				t.Fatalf("seed %d: %v holds %d rounds at lag %d", seed, id, held, lag)
			}
		}
		s.Stop()
	}
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

// corruptC1 runs a 7-component ring with the given number of guarded
// components, corrupts C1's active at 500 ms, runs 1.5 s more and settles.
func corruptC1(t *testing.T, guarded int, seed int64) *Sim {
	t.Helper()
	s, err := NewSim(ringConfig(7, guarded, seed, 120, 60))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.Start()
	s.RunFor(500 * time.Millisecond)
	if !s.CorruptActive(1) {
		t.Fatalf("seed %d: CorruptActive(1) found no live node", seed)
	}
	s.RunFor(1500 * time.Millisecond)
	s.Settle()
	s.Stop()
	return s
}

// checkRecovered is what any software recovery must leave behind: at least
// one recovery, none that demoted nobody, no corrupted survivor and a clean
// recovery line.
func checkRecovered(t *testing.T, s *Sim, seed int64) {
	t.Helper()
	if st := s.Stats(); st.Recoveries < 1 || st.Recoveries > st.Takeovers {
		t.Fatalf("seed %d: %d recoveries for %d takeovers, want 1 ≤ recoveries ≤ takeovers", seed, st.Recoveries, st.Takeovers)
	}
	for _, id := range s.asg.Nodes {
		if n := s.nodes[id]; !n.failed.Load() && n.state.Corrupted {
			t.Fatalf("seed %d: node %d remains corrupted after recovery", seed, id)
		}
	}
	round, violations, _, err := s.CheckInvariants()
	if err != nil {
		t.Fatalf("seed %d: CheckInvariants after recovery: %v", seed, err)
	}
	if len(violations) != 0 {
		t.Fatalf("seed %d: round %d: violations after recovery: %v", seed, round, violations)
	}
}

// TestSimCorruptionRecoveryAndTakeover: with C1 the only guarded component,
// its corruption is caught by its own acceptance test or by one downstream
// of it, and either way the one recovery demotes exactly C1 and promotes its
// shadow — by construction, on every seed.
func TestSimCorruptionRecoveryAndTakeover(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := corruptC1(t, 1, seed)
		checkRecovered(t, s, seed)
		if st := s.Stats(); st.Recoveries != 1 || st.Takeovers != 1 {
			t.Fatalf("seed %d: %d recoveries and %d takeovers, want exactly 1 and 1", seed, st.Recoveries, st.Takeovers)
		}
		act, sdw := s.nodes[s.asg.Active[1]], s.nodes[s.asg.Shadow[1]]
		if !act.failed.Load() || !sdw.promoted || s.liveNode(1) != sdw {
			t.Fatalf("seed %d: C1 active.failed=%v shadow.promoted=%v, want the shadow live", seed, act.failed.Load(), sdw.promoted)
		}
	}
}

// TestSimRecoveryStormSweep: with three guarded components one fault can take
// several recoveries, and a shadow an earlier one promoted is a survivor like
// any other in the next. Skipped because it was promoted at all, it kept the
// still-corrupted active's messages it had absorbed, and recovery repeated
// until the run ended (seeds 20, 34, 38, 55 and 57 logged 152–227 recoveries
// with corrupted survivors).
func TestSimRecoveryStormSweep(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		checkRecovered(t, corruptC1(t, 3, seed), seed)
	}
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

// capturing is a runtime that records every gossip packet it carries: a copy,
// since datagram borrows the packet from its sender.
type capturing struct {
	runtime
	pkts []gossip.Packet
}

func (c *capturing) datagram(to msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	kept := p
	kept.Updates, kept.Digest = slices.Clone(p.Updates), slices.Clone(p.Digest)
	c.pkts = append(c.pkts, kept)
	c.runtime.datagram(to, p, delay, handle)
}

// TestAcceptCoversEarlierValidations: gossip delivers only the newest
// passed-AT update of an origin, and Accept's supersedes the accepted node's
// acceptance tests — so a member that sees Accept's update alone must still
// learn every position those tests validated.
func TestAcceptCoversEarlierValidations(t *testing.T) {
	s, err := NewSim(ringConfig(7, 3, 4, 120, 60))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	rt := &capturing{runtime: s.Cluster.rt}
	s.Cluster.rt = rt
	s.Start()
	s.RunFor(300 * time.Millisecond)
	act := s.nodes[s.asg.Active[1]]
	// newestFrom is act's newest passed-AT update among the packets carried.
	newestFrom := func() (newest gossip.Update) {
		for _, p := range rt.pkts {
			for _, u := range p.Updates {
				if u.Origin == gossip.NodeID(act.id) && u.Kind == updPassedAT && u.Seq > newest.Seq {
					newest = u
				}
			}
		}
		return newest
	}
	tested := make([]uint64, len(s.comps.ids))
	if _, _, err := mergePassedAT(newestFrom().Payload, s.comps, tested); err != nil {
		t.Fatalf("C1's last acceptance test: %v", err)
	}
	foreign := false
	for slot, sn := range tested {
		foreign = foreign || slot != act.slot && sn != 0
	}
	if !foreign {
		t.Fatalf("C1's acceptance tests validated no foreign position (%v): nothing for Accept to cover", tested)
	}
	if !s.Accept(1) {
		t.Fatal("Accept(1) during guarded operation returned false")
	}
	accepted := newestFrom()

	fresh, err := NewSim(ringConfig(7, 3, 4, 120, 60)) // a member that has seen nothing
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	member := fresh.nodes[fresh.asg.Active[5]]
	fresh.onGossipDeliver(member, accepted)
	for slot, sn := range tested {
		if member.valid[slot] < sn {
			t.Fatalf("seeing only Accept's update, a member validated %v; C1's acceptance tests had validated %v", member.valid, tested)
		}
	}
	if member.valid[act.slot] != act.ownSN {
		t.Fatalf("Accept validated C1 up to %d, its stream is at %d", member.valid[act.slot], act.ownSN)
	}
	s.Stop()
}

// TestGossipDropsCountedOnce: a gossip packet chaos drops is counted once, in
// the cluster's counters, and synergy_cluster_gossip_dropped_total reads that
// count.
func TestGossipDropsCountedOnce(t *testing.T) {
	cfg := ringConfig(7, 3, 21, 50, 5)
	cfg.Chaos = chaos.Spec{Seed: 21, Drop: 0.05}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.RunFor(500 * time.Millisecond)
	s.Stop()
	dropped := s.Stats().GossipDropped
	if dropped == 0 {
		t.Fatal("premise: drop chaos lost no gossip packet")
	}
	var family float64
	for _, f := range reg.Snapshot().Families {
		if f.Name == "synergy_cluster_gossip_dropped_total" {
			family = f.Series[0].Value
		}
	}
	if family != float64(dropped) {
		t.Fatalf("synergy_cluster_gossip_dropped_total = %v, Stats().GossipDropped = %d", family, dropped)
	}
}
