package coord

import (
	"errors"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// rebootConfig is the wall-clock recovery workload's shape on the simulator:
// Δ 50 ms, a fast open loop and the live middleware's clock and delay bounds.
func rebootConfig(seed int64) Config {
	cfg := DefaultConfig(Coordinated, seed)
	cfg.CheckpointInterval = 50 * time.Millisecond
	cfg.Clock = vtime.ClockConfig{MaxDeviation: 2 * time.Millisecond, DriftRate: 1e-4}
	cfg.Net = NetConfig{MinDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond}
	cfg.Workload1 = app.Workload{InternalRate: 2000, ExternalRate: 200}
	cfg.Workload2 = cfg.Workload1
	return cfg
}

// TestRebootSweep runs the recovery schedule of the wall-clock benchmark in
// the simulator: a fault every 200 ms with the victims rotating, two faults
// in three a crash whose host reboots 2Δ later with nothing in memory, the
// third in place. The recovery line a fault would restore is sampled just
// before each fault; a rebooted node must rejoin from the rounds its host
// kept, so no sample may violate and the system must never fail.
func TestRebootSweep(t *testing.T) {
	victims := []msg.ProcID{msg.P2, msg.P1Sdw, msg.P1Act}
	for seed := int64(1); seed <= 20; seed++ {
		cfg := rebootConfig(seed)
		s := newSystem(t, cfg)
		s.Start()
		s.RunFor(0.5)
		for i := 0; i < 40; i++ {
			s.RunFor(0.2)
			line, err := s.RecoveryLine()
			if err != nil {
				t.Fatalf("seed %d fault %d: %v", seed, i, err)
			}
			if vs, _ := line.CheckDetailed(); len(vs) != 0 {
				t.Fatalf("seed %d fault %d: %d violation(s), first: %v", seed, i, len(vs), vs[0])
			}
			node := msg.NodeID(victims[i%len(victims)])
			if i%3 != (i/3)%3 {
				s.CrashNode(node)
				s.RunFor(2 * cfg.CheckpointInterval.Seconds())
				if err := s.RebootNode(node); err != nil {
					t.Fatalf("seed %d fault %d: reboot %v: %v", seed, i, node, err)
				}
			} else if err := s.InjectHardwareFault(node); err != nil {
				t.Fatalf("seed %d fault %d: %v", seed, i, err)
			}
			if failed, why := s.Failed(); failed {
				t.Fatalf("seed %d fault %d: system failed: %s", seed, i, why)
			}
		}
	}
}

// TestRebootRefusesDemotedActive: after a software takeover the demoted active
// cannot come back — a fresh process would rejoin as the active — so its
// reboot fails with ErrDemoted, it stays down and the others' line stays
// clean.
func TestRebootRefusesDemotedActive(t *testing.T) {
	s := newSystem(t, DefaultConfig(Coordinated, 23))
	s.Start()
	s.RunUntil(vtime.FromSeconds(50))
	s.ActivateSoftwareFault()
	s.RunUntil(vtime.FromSeconds(300))
	if s.ActiveC1() != msg.P1Sdw {
		t.Fatal("AT did not fire in the window for this seed")
	}
	act := msg.NodeID(msg.P1Act)
	if !s.CrashNode(act) {
		t.Fatal("demoted P1act already down")
	}
	s.RunFor(20)
	if err := s.RebootNode(act); !errors.Is(err, ErrDemoted) {
		t.Fatalf("RebootNode(P1act) after takeover = %v, want ErrDemoted", err)
	}
	if !s.NodeDown(act) {
		t.Fatal("refused reboot brought P1act up")
	}
	s.RunFor(30)
	mustHealthy(t, s)
	line, err := s.RecoveryLine()
	if err != nil {
		t.Fatal(err)
	}
	if vs, _ := line.CheckDetailed(); len(vs) != 0 {
		t.Fatalf("line after a refused reboot: %v", vs)
	}
}

// memDisk is a host's durable log kept in memory. It refuses the next refuse
// truncations.
type memDisk struct {
	recs   []storage.Record
	refuse int
}

func (d *memDisk) Commit(round uint64, data []byte, keepFrom uint64) error {
	kept := d.recs[:0]
	for _, r := range d.recs {
		if r.Round >= keepFrom {
			kept = append(kept, r)
		}
	}
	d.recs = append(kept, storage.Record{Round: round, Data: append([]byte(nil), data...)})
	return nil
}

func (d *memDisk) TruncateAbove(round uint64) error {
	if d.refuse > 0 {
		d.refuse--
		return errors.New("memdisk: truncate refused")
	}
	kept := d.recs[:0]
	for _, r := range d.recs {
		if r.Round <= round {
			kept = append(kept, r)
		}
	}
	d.recs = kept
	return nil
}

func (d *memDisk) Close() error { return nil }

func (d *memDisk) latest() uint64 {
	if len(d.recs) == 0 {
		return 0
	}
	return d.recs[len(d.recs)-1].Round
}

// diskRuntime is the simulator with a disk under every host: a node whose
// disk refuses a write fail-stops instead of failing the system, and Attach
// loads what the disk kept into the node's store.
type diskRuntime struct {
	*simRuntime
	disks map[msg.ProcID]*memDisk
}

func (r *diskRuntime) FailStop(msg.ProcID, error) bool { return true }

func (r *diskRuntime) Attach(id msg.ProcID, st *storage.Stable) error {
	d := r.disks[id]
	if err := st.Load(d.recs); err != nil {
		return err
	}
	st.SetBackend(d)
	return nil
}

// newDiskSystem assembles a simulated system over diskRuntime: the simulator's
// own assembly with the runtime swapped before anything runs and every store
// attached to its (empty) disk.
func newDiskSystem(t *testing.T, cfg Config) (*System, *diskRuntime) {
	t.Helper()
	s := newSystem(t, cfg)
	rt := &diskRuntime{simRuntime: s.sim, disks: make(map[msg.ProcID]*memDisk)}
	s.rt = rt
	for _, n := range s.order {
		rt.disks[n.id] = &memDisk{}
		if err := s.attach(n, true); err != nil {
			t.Fatal(err)
		}
	}
	return s, rt
}

// TestRebootDischargesOwedTruncation: a recovery pass rewinds P1sdw's store
// but its disk refuses the truncation, so P1sdw fail-stops owing it while the
// survivors go on committing rounds of the new timeline under the numbers the
// disk still holds from the old one. A reboot must discard those rounds before
// the node resumes; a disk that refuses again leaves it down and the survivors
// untouched.
func TestRebootDischargesOwedTruncation(t *testing.T) {
	s, rt := newDiskSystem(t, DefaultConfig(Coordinated, 81))
	s.Start()
	s.RunUntil(vtime.FromSeconds(60))
	p2, sdw := msg.NodeID(msg.P2), msg.NodeID(msg.P1Sdw)
	s.CrashNode(p2)
	s.RunFor(45) // the survivors commit past P2's newest round
	line := s.Checkpointer(msg.P2).Ndc()
	disk := rt.disks[msg.P1Sdw]
	if disk.latest() <= line {
		t.Fatalf("premise: P1sdw's disk ends at %d, not above P2's round %d", disk.latest(), line)
	}
	disk.refuse = 1
	if err := s.RebootNode(p2); err != nil {
		t.Fatal(err)
	}
	mustHealthy(t, s)
	if !s.NodeDown(sdw) {
		t.Fatal("P1sdw did not fail-stop on a refused rollback")
	}
	s.RunFor(35) // the survivors reuse the round numbers P1sdw's disk holds
	if disk.latest() <= line {
		t.Fatalf("premise: the refused truncation left nothing above round %d", line)
	}

	// A second refusal: the reboot fails before the node resumes.
	disk.refuse = 1
	before := s.Metrics().HWFaults
	ndcAct, ndcP2 := s.Checkpointer(msg.P1Act).Ndc(), s.Checkpointer(msg.P2).Ndc()
	if err := s.RebootNode(sdw); err == nil {
		t.Fatal("reboot succeeded over a disk that refused the owed truncation")
	}
	if !s.NodeDown(sdw) {
		t.Fatal("failed reboot brought P1sdw up")
	}
	if s.Metrics().HWFaults != before || s.Checkpointer(msg.P1Act).Ndc() != ndcAct || s.Checkpointer(msg.P2).Ndc() != ndcP2 {
		t.Fatal("failed reboot touched the survivors")
	}

	// The disk takes the truncation: the node resumes from the line.
	if err := s.RebootNode(sdw); err != nil {
		t.Fatal(err)
	}
	if got := disk.latest(); got != line {
		t.Fatalf("P1sdw's disk ends at round %d after the reboot, want %d", got, line)
	}
	if got := s.Checkpointer(msg.P1Sdw).Ndc(); got != line {
		t.Fatalf("P1sdw resumed at round %d, want %d", got, line)
	}
	for _, id := range msg.Processes() {
		if s.NodeDown(msg.NodeID(id)) {
			t.Fatalf("%v is down after the reboot", id)
		}
	}
	s.RunFor(60)
	s.Quiesce()
	mustHealthy(t, s)
	l, err := s.RecoveryLine()
	if err != nil {
		t.Fatal(err)
	}
	if vs, _ := l.CheckDetailed(); len(vs) != 0 {
		t.Fatalf("line after the reboot: %v", vs)
	}
}
