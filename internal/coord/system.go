package coord

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/stats"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Metrics aggregates a run's dependability outcomes.
type Metrics struct {
	// HWFaults counts injected hardware faults.
	HWFaults int
	// SWRecoveries counts completed software error recoveries.
	SWRecoveries int
	// UnrecoverableSW counts software errors the system could not recover
	// from (the fate of the naive combination after a bad rollback).
	UnrecoverableSW int
	// UnrecoverableHW counts hardware faults with no stable checkpoint to
	// roll back to beyond genesis.
	UnrecoverableHW int
	// Resends counts saved unacknowledged messages the recovery passes
	// pushed out again.
	Resends int
	// RollbackDistance samples, in seconds, the computation undone per
	// process per hardware fault (the paper's Figure 7 metric).
	RollbackDistance stats.Sample
	// RollbackByProc breaks the samples down per process.
	RollbackByProc map[msg.ProcID]*stats.Sample
}

// System is one assembled three-node run over a Runtime. Its state is
// guarded the way the runtime's nodes are: a node's fields by holding that
// node, the system-wide flags and metrics by holding every node to write and
// any node to read.
type System struct {
	cfg Config
	rt  Runtime
	sim *simRuntime // nil unless NewSystem built the runtime

	// nodes is indexed by process ID (node i hosts process i; nil where the
	// scheme has no such process); order lists the present ones ascending.
	// Every loop that draws randomness, accumulates floats or schedules
	// simultaneous events walks order, so replays never depend on map
	// iteration.
	nodes [msg.P2 + 1]*node
	order []*node

	workloadOn  bool
	actDemoted  bool
	upgradeDone bool
	failed      bool
	failReason  string

	metrics Metrics
}

// node is one hosted process with its checkpointer.
type node struct {
	sys  *System
	id   msg.ProcID
	role mdcd.Role
	proc *mdcd.Process
	cp   *tb.Checkpointer // nil in schemes without stable storage
	// pending holds application events deferred to the end of the node's
	// blocking period.
	pending []appEvent
	// down marks the node crashed: it neither computes nor communicates, and
	// recovery passes leave it out, until RepairNode/RebootNode.
	down bool
	// truncAbove, when non-zero, is a truncation the node owes its disk: a
	// recovery rollback to this round was refused there, so the disk keeps
	// rounds of a discarded timeline under numbers the survivors reuse.
	truncAbove uint64
}

// New assembles a system over the given runtime. The runtime delivers
// arriving messages through Deliver; NewSystem is the simulator's
// constructor.
func New(cfg Config, rt Runtime) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, rt: rt}
	s.metrics.RollbackByProc = make(map[msg.ProcID]*stats.Sample)
	roles := []mdcd.Role{msg.P1Act: mdcd.RoleActive, msg.P1Sdw: mdcd.RoleShadow, msg.P2: mdcd.RolePeer}
	if cfg.Scheme == TBOnly {
		// Two plain processes; no shadow participates.
		roles = []mdcd.Role{msg.P1Act: mdcd.RolePlain, msg.P2: mdcd.RolePlain}
	}
	for i, role := range roles {
		if role == 0 {
			continue
		}
		n := &node{sys: s, id: msg.ProcID(i), role: role}
		s.nodes[n.id] = n
		s.order = append(s.order, n)
		s.metrics.RollbackByProc[n.id] = &stats.Sample{}
		if err := s.buildNode(n); err != nil {
			return nil, err
		}
		if err := s.attach(n, true); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildNode (re)constructs a node's protocol state in place: a fresh process
// and, where the scheme has stable storage, a fresh checkpointer on a fresh
// local clock, wired to each other. It runs at assembly and again when
// RebootNode brings back a node whose memory did not survive its crash.
// Metric identity is (name, proc label), so a rebuilt node's bundles resolve
// to the same series.
func (s *System) buildNode(n *node) error {
	cfg := s.cfg
	label := obs.L("proc", n.id.String())
	p := mdcd.NewProcess(n.id, n.role, s.mdcdConfig(), n)
	p.Obs = mdcd.NewObs(cfg.Obs, label)
	n.proc, n.cp, n.pending = p, nil, nil

	if cfg.Scheme.UsesTBTimers() || cfg.Scheme == WriteThrough {
		clock := vtime.NewClock(cfg.Clock, s.rt.Rand(n.id))
		var rec tb.Recorder // nil: the checkpointer formats no notes
		if cfg.TraceEnabled {
			rec = s.rt.Record
		}
		cp, err := tb.NewCheckpointer(n.id, s.tbConfigFor(), clock, n, n, rec)
		if err != nil {
			return err
		}
		cp.Obs = tb.NewObs(cfg.Obs, label)
		cp.OnResyncRequest = s.requestResync
		cp.OnCommitFailed = func(err error) { s.rt.Recover(func() { s.commitFailed(n, err) }) }
		if cfg.Scheme.UsesTBTimers() {
			// Keep what a recovery could restore if every node rejoined
			// now; write-through recovery restores each node's latest.
			cp.Pin = func() uint64 { return s.lowestRound(n, false) }
		}
		n.cp = cp
		p.DirtyChanged = cp.NotifyDirtyChanged
		if n.role == mdcd.RoleShadow {
			// A shadow's sends are suppressed, so the TB layer never
			// sees them and its live unacknowledged set stays empty.
			// Its checkpoints instead save the suppressed entries a
			// takeover would re-send: they are what hardware recovery
			// must restore when a rollback lands on a line committed
			// before the shadow took over. After promotion the shadow
			// transmits physically and the TB set takes over.
			p.UnackedProvider = func() []msg.Message {
				if !p.Promoted() {
					return p.SuppressedPending()
				}
				return cp.UnackedSnapshot()
			}
		} else {
			p.UnackedProvider = cp.UnackedSnapshot
		}
	}
	if cfg.Scheme == WriteThrough {
		p.Validated = func(selfAT, wasDirty bool) { s.writeThroughValidated(n, selfAT, wasDirty) }
	}
	return nil
}

func (s *System) mdcdConfig() mdcd.Config {
	cfg := mdcd.Config{Test: s.cfg.Test}
	switch s.cfg.Scheme {
	case Coordinated:
		cfg.Mode = mdcd.ModeModified
		cfg.GateOnNdc = !s.cfg.ContentOnlyCoordination && !s.cfg.DisableNdcGate
		cfg.HoldPassedATInBlocking = s.cfg.ContentOnlyCoordination
	case WriteThrough:
		cfg.Mode = mdcd.ModeOriginal
	case Naive:
		cfg.Mode = mdcd.ModeModified
		cfg.HoldPassedATInBlocking = true // original TB blocks all messages
	default:
		cfg.Mode = mdcd.ModeModified
		if s.cfg.OriginalMDCD && s.cfg.Scheme == MDCDOnly {
			cfg.Mode = mdcd.ModeOriginal
		}
	}
	return cfg
}

// tbConfigFor returns the per-node TB configuration; WriteThrough reuses the
// checkpointer purely for its stable slot and unacknowledged-message
// tracking (timers never start).
func (s *System) tbConfigFor() tb.Config {
	if s.cfg.Scheme == WriteThrough {
		c := Config{
			Scheme:             Coordinated,
			Clock:              s.cfg.Clock,
			Net:                s.cfg.Net,
			CheckpointInterval: s.cfg.CheckpointInterval,
		}
		return c.tbConfig()
	}
	return s.cfg.tbConfig()
}

// Process returns a participant by ID (nil if absent in this scheme).
func (s *System) Process(id msg.ProcID) *mdcd.Process {
	if n := s.node(id); n != nil {
		return n.proc
	}
	return nil
}

// Checkpointer returns a participant's TB checkpointer (nil if none).
func (s *System) Checkpointer(id msg.ProcID) *tb.Checkpointer {
	if n := s.node(id); n != nil {
		return n.cp
	}
	return nil
}

// node returns the node hosting id (nil if absent in this scheme).
func (s *System) node(id msg.ProcID) *node {
	if int(id) >= len(s.nodes) {
		return nil
	}
	return s.nodes[id]
}

// Deliver dispatches a message the interconnect delivered, with the
// destination node held: acknowledgements feed the TB checkpointer's
// unacknowledged tracking, everything else enters the MDCD containment
// algorithm. Traffic to a crashed node and from a demoted P1act is dropped.
func (s *System) Deliver(m *msg.Message) {
	n := s.node(m.To)
	if n == nil || n.down || (s.actDemoted && m.From == msg.P1Act) {
		return
	}
	if m.Kind == msg.Ack {
		if n.cp != nil {
			n.cp.OnAck(*m)
		}
		return
	}
	n.proc.Receive(*m)
}

// A node is its own process's mdcd.Env and its own checkpointer's tb.Host and
// tb.Runtime; both only call it while the node is held.
var (
	_ mdcd.Env   = (*node)(nil)
	_ tb.Host    = (*node)(nil)
	_ tb.Runtime = (*node)(nil)
)

func (n *node) Now() vtime.Time       { return n.sys.rt.Now() }
func (n *node) Rand() *rand.Rand      { return n.sys.rt.Rand(n.id) }
func (n *node) Record(ev trace.Event) { n.sys.rt.Record(ev) }
func (n *node) InBlocking() bool      { return n.cp != nil && n.cp.InBlocking() }

// After arms a timer whose callback runs holding the node.
func (n *node) After(d time.Duration, fn func()) (cancel func()) {
	return n.sys.rt.After(n.id, d, fn)
}

func (n *node) Send(m msg.Message) {
	if n.cp != nil {
		n.cp.OnSend(m)
	}
	n.sys.rt.Send(m)
}

func (n *node) Ndc() uint64 {
	if n.cp == nil {
		return 0
	}
	return n.cp.Ndc()
}

func (n *node) RequestErrorRecovery(detector msg.ProcID) {
	n.sys.rt.Recover(func() { n.sys.softwareRecovery(detector) })
}

func (n *node) EffectiveDirty() bool { return n.proc.EffectiveDirty() }

func (n *node) Snapshot(kind checkpoint.Kind) *checkpoint.Checkpoint { return n.proc.Snapshot(kind) }

// LatestVolatile hands out a copy: the stored checkpoint stays the process's.
func (n *node) LatestVolatile() (*checkpoint.Checkpoint, bool) {
	c, ok := n.proc.Volatile.Latest()
	return c.Clone(), ok
}

// ReleaseHeld ends a blocking period: the held messages are delivered and
// the application events deferred meanwhile run.
func (n *node) ReleaseHeld() {
	n.proc.ReleaseHeld()
	n.sys.flushPending(n)
}

// writeThroughValidated decides whether a validation event writes a
// checkpoint through to stable storage under the write-through baseline.
// Type-2 checkpoints exist only where the original MDCD protocol establishes
// them — right after a potentially contaminated state is validated — and
// P1act (exempt from MDCD checkpointing, dirty bit constantly one) saves its
// current state upon the receipt of a passed-AT notification, per the
// paper's description of the variant. The rollback distance consequences of
// this validation-bound cadence are what Figure 7 quantifies.
func (s *System) writeThroughValidated(n *node, selfAT, wasDirty bool) {
	if n.id == msg.P1Act {
		if selfAT {
			return // saves only upon receipt of a notification
		}
	} else if !wasDirty {
		return // no Type-2 establishment for an already-clean state
	}
	ev := trace.Event{At: s.rt.Now(), Proc: n.id, Kind: trace.StableCommitted, Ckpt: checkpoint.Stable, Note: "write-through"}
	if err := n.cp.CommitImmediate(n.proc.Snapshot(checkpoint.Stable)); err != nil {
		ev.Ckpt, ev.Note = 0, "write-through: "+err.Error()
	}
	s.rt.Record(ev)
}

// requestResync is every checkpointer's OnResyncRequest: the requester sits
// inside its own node, so the system-wide resynchronization goes through the
// runtime.
func (s *System) requestResync() { s.rt.Recover(s.resyncAll) }

// resyncAll resynchronizes every node's clock (the timer-resynchronization
// service the TB protocol assumes; modelled as instantaneous).
func (s *System) resyncAll() {
	s.holdAll()
	defer s.releaseAll()
	for _, n := range s.order {
		if n.cp == nil {
			continue
		}
		n.cp.Clock().Resynchronize(s.rt.Now(), s.rt.Rand(n.id))
		n.cp.NoteResynced()
	}
}

// failf marks the system unrecoverable (every node held).
func (s *System) failf(format string, args ...any) {
	s.failed = true
	s.failReason = fmt.Sprintf(format, args...)
}
