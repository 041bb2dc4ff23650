package coord

import (
	"errors"
	"reflect"
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
)

// upRefuser is the simulator with a host that refuses to come back up the
// next refuse times.
type upRefuser struct {
	*simRuntime
	refuse int
}

func (r *upRefuser) Up(id msg.ProcID) error {
	if r.refuse > 0 {
		r.refuse--
		return errors.New("host refused to come up")
	}
	return r.simRuntime.Up(id)
}

// TestFailedRebootCountsNothingTwice: a reboot whose host refuses to come up
// puts the old incarnation back, so every family reads as before it; the
// reboot that lands adds the fresh incarnation's counts to the old one's,
// and the stable store's counts, which the node keeps, are not added again.
func TestFailedRebootCountsNothingTwice(t *testing.T) {
	cfg := rebootConfig(5)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s := newSystem(t, cfg)
	rt := &upRefuser{simRuntime: s.sim, refuse: 1}
	s.rt = rt
	s.Start()
	s.RunFor(1)
	p2 := msg.NodeID(msg.P2)
	s.CrashNode(p2)
	s.RunFor(0.2)
	before := reg.Snapshot()
	if err := s.RebootNode(p2); err == nil {
		t.Fatal("premise: the first reboot must fail")
	}
	if got := reg.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatalf("a failed reboot moved the registry:\n got %+v\nwant %+v", got, before)
	}
	old := s.Process(msg.P2)
	if err := s.RebootNode(p2); err != nil {
		t.Fatal(err)
	}
	s.RunFor(0.3)
	if s.Process(msg.P2) == old {
		t.Fatal("premise: the reboot built no fresh process")
	}
	fresh := s.Process(msg.P2).Stats()
	stored := s.Checkpointer(msg.P2).Stable.Commits()
	after := reg.Snapshot()
	series := func(snap obs.Snapshot, name, labels string) float64 {
		for _, f := range snap.Families {
			for _, ss := range f.Series {
				if f.Name == name && ss.Labels == labels {
					return ss.Value
				}
			}
		}
		t.Fatalf("no %s{%s}", name, labels)
		return 0
	}
	commits := `proc="P2"`
	if got, was := series(after, "synergy_tb_stable_commits_total", commits), series(before, "synergy_tb_stable_commits_total", commits); got != float64(stored) || got <= was {
		t.Errorf("P2's stable commits read %v after the reboot (%v before it), want the store's %d", got, was, stored)
	}
	for _, c := range []struct {
		name, labels string
		fresh        uint64
	}{
		{"synergy_mdcd_checkpoints_total", `kind="type1",proc="P2"`, fresh.Type1},
		{"synergy_mdcd_dirty_set_total", `proc="P2"`, fresh.DirtySet},
		{"synergy_mdcd_dirty_cleared_total", `proc="P2"`, fresh.DirtyCleared},
		{"synergy_mdcd_ats_total", `proc="P2"`, fresh.ATsRun},
	} {
		if c.fresh == 0 {
			t.Errorf("premise: the fresh incarnation counted no %s", c.name)
		}
		if got, want := series(after, c.name, c.labels), series(before, c.name, c.labels)+float64(c.fresh); got != want {
			t.Errorf("%s{%s} = %v after the reboot, want %v", c.name, c.labels, got, want)
		}
	}
}

// TestWriteThroughCommitsReachTheRegistry: the write-through baseline commits
// outside the timer machinery, and the store counts those commits like any
// other, so the family reads what the stores hold.
func TestWriteThroughCommitsReachTheRegistry(t *testing.T) {
	cfg := rebootConfig(3)
	cfg.Scheme = WriteThrough
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s := newSystem(t, cfg)
	s.Start()
	s.RunFor(2)
	mustHealthy(t, s)
	var stored uint64
	for _, id := range msg.Processes() {
		stored += s.Checkpointer(id).Stable.Commits()
	}
	if stored == 0 {
		t.Fatal("premise: write-through committed nothing")
	}
	var family float64
	for _, f := range reg.Snapshot().Families {
		if f.Name == "synergy_tb_stable_commits_total" {
			for _, ss := range f.Series {
				family += ss.Value
			}
		}
	}
	if family != float64(stored) {
		t.Fatalf("synergy_tb_stable_commits_total sums to %v, the stores hold %d commits", family, stored)
	}
}

// TestRecoveriesMatchMetrics: the one-node read the live families take
// reports the same outcomes as the full copy, after a run with hardware
// faults, a software recovery and re-sends.
func TestRecoveriesMatchMetrics(t *testing.T) {
	s, err := NewSystem(goldenConfig(Coordinated, 1))
	if err != nil {
		t.Fatal(err)
	}
	goldenDrive(s)
	hw, sw, resends := s.Recoveries()
	m := s.Metrics()
	if hw != m.HWFaults || sw != m.SWRecoveries || resends != m.Resends {
		t.Fatalf("Recoveries() = %d, %d, %d; Metrics() has %d, %d, %d", hw, sw, resends, m.HWFaults, m.SWRecoveries, m.Resends)
	}
	if hw == 0 || sw == 0 || resends == 0 {
		t.Fatalf("run recovered nothing to compare: %d, %d, %d", hw, sw, resends)
	}
}
