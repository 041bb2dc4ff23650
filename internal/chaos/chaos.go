// Package chaos turns scenario specifications into deterministic, seeded
// fault-injection decisions for the live middleware's interconnect: lost
// first transmissions, duplication, delivery-delay jitter, frame-byte
// corruption (driving the receiver's CRC error path), directed or
// bidirectional partitions with heal times, and node crash-restart
// schedules. The transport applies the verdicts below a reliable link-layer
// abstraction — faults add latency, duplicates and detectable garbage, never
// silent loss — so the protocol's channel assumptions hold while every
// hardening path is exercised.
//
// The package is pure decision logic: it owns no clocks, sockets or
// goroutines. The transport asks for a verdict per frame, passing the run's
// elapsed time; every random draw comes from a per-directed-link generator
// seeded from the spec, so a link's decision sequence is a function of
// (seed, link, frame index) alone — the same scenario replays the same
// faults regardless of scheduling on other links.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/storage"
)

// Partition blocks frames between two processes for a window of run time.
type Partition struct {
	// A and B are the partitioned endpoints. Frames A→B are dropped
	// during the window; with Bidirectional, B→A frames too.
	A, B msg.ProcID
	// Bidirectional extends the block to the reverse direction.
	Bidirectional bool
	// Start and End bound the window in elapsed run time (End exclusive;
	// the partition heals at End).
	Start, End time.Duration
}

// covers reports whether the partition blocks from→to at the given elapsed
// run time.
func (p Partition) covers(from, to msg.ProcID, elapsed time.Duration) bool {
	if elapsed < p.Start || elapsed >= p.End {
		return false
	}
	if p.A == from && p.B == to {
		return true
	}
	return p.Bidirectional && p.A == to && p.B == from
}

// RetransmitDelay is the modeled link-layer retransmission timeout a
// chaos-dropped first transmission costs before its copy reaches the wire.
// Both interconnects charge it — the live TCP writer sleeps it out before
// appending the retransmission sub-frame, and the simulated network adds it
// to the frame's delivery delay — so a drop means the same thing in both
// execution paths.
const RetransmitDelay = 2 * time.Millisecond

// Crash schedules a node kill and (optionally) its restart.
type Crash struct {
	// Victim is the node to kill.
	Victim msg.ProcID
	// At is when the kill fires, in elapsed run time.
	At time.Duration
	// Downtime is how long the node stays down before the restart; zero
	// or negative means the node never restarts.
	Downtime time.Duration
}

// FsyncStall schedules a window during which the victim node's durable
// stable-log fsyncs each take Stall longer — a seized disk or a saturated
// write cache. The node keeps running; only its stable commits slow down, so
// the checkpoint rounds it completes late exercise the rounds the survivors'
// stores keep for it rather than any crash path.
type FsyncStall struct {
	// Victim is the node whose stable log stalls.
	Victim msg.ProcID
	// Start and End bound the window in elapsed run time (End exclusive).
	Start, End time.Duration
	// Stall is the extra latency added to each fsync in the window.
	Stall time.Duration
}

// Covers reports whether the stall window is open at the given elapsed run
// time.
func (f FsyncStall) Covers(elapsed time.Duration) bool {
	return elapsed >= f.Start && elapsed < f.End
}

// DiskFault schedules a window of storage faults against one node's stable
// log, applied through the storage.FaultVFS the live middleware wraps the
// victim's log in. Transient probabilities draw per IO operation from the
// victim's seeded generator; Persistent turns the window into a dead device
// (every write, metadata op and fsync fails deterministically), which is
// what drives a node through retry exhaustion into fail-stop.
type DiskFault struct {
	// Victim is the node whose stable log the faults target.
	Victim msg.ProcID
	// Start and End bound the window in elapsed run time (End exclusive).
	Start, End time.Duration
	// WriteErr is the per-write probability of a clean EIO (nothing
	// persisted).
	WriteErr float64
	// TornWrite is the per-write probability the write fails after
	// persisting a random prefix — the torn record recovery's CRC scan
	// must discard.
	TornWrite float64
	// SyncErr is the per-fsync probability (file or directory) of an EIO.
	SyncErr float64
	// ReadCorrupt is the per-read probability that one bit of the returned
	// data is flipped — bitrot surfacing at recovery time.
	ReadCorrupt float64
	// Persistent fails every write, metadata operation and fsync in the
	// window, ignoring the probabilities above.
	Persistent bool
}

// Covers reports whether the fault window is open at the given elapsed run
// time.
func (f DiskFault) Covers(elapsed time.Duration) bool {
	return elapsed >= f.Start && elapsed < f.End
}

// active reports whether the window can inject anything at all.
func (f DiskFault) active() bool {
	return f.Persistent || f.WriteErr > 0 || f.TornWrite > 0 || f.SyncErr > 0 || f.ReadCorrupt > 0
}

// Spec is a chaos scenario: per-frame fault probabilities plus scheduled
// partitions, crash-restarts and fsync stalls. The zero Spec injects nothing.
type Spec struct {
	// Seed drives every random decision. Two runs of the same spec see
	// identical per-link fault sequences.
	Seed int64
	// Drop is the per-frame probability the first transmission is lost
	// on the wire. The transport preserves the protocol's reliable-FIFO
	// channel contract, so a drop costs a retransmission timeout rather
	// than silently losing the frame (real loss only comes from recovery
	// flushes and crashes, which the unacknowledged logs re-cover).
	Drop float64
	// Duplicate is the per-frame probability a frame is delivered twice
	// (exercising the receiver's dedup-and-re-ack path).
	Duplicate float64
	// Corrupt is the per-frame probability a bit-flipped copy of the
	// frame goes on the wire ahead of the clean retransmission; the
	// receiver's CRC check detects and drops the corrupted copy.
	Corrupt float64
	// MaxExtraDelay bounds uniform extra delivery jitter per frame (zero
	// disables).
	MaxExtraDelay time.Duration
	// Partitions lists scheduled partition windows.
	Partitions []Partition
	// Crashes lists scheduled node crash-restarts.
	Crashes []Crash
	// FsyncStalls lists scheduled durable-storage stall windows.
	FsyncStalls []FsyncStall
	// DiskFaults lists scheduled stable-log disk-fault windows.
	DiskFaults []DiskFault
}

// end is when the victim comes back up; a crash with no downtime keeps it
// down for the rest of the run.
func (c Crash) end() time.Duration {
	if c.Downtime <= 0 {
		return math.MaxInt64
	}
	return c.At + c.Downtime
}

// validProb reports whether p is a probability: in [0,1], and not NaN.
func validProb(p float64) bool { return p >= 0 && p <= 1 }

// Validate checks probabilities and schedules.
func (s Spec) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{{"drop", s.Drop}, {"duplicate", s.Duplicate}, {"corrupt", s.Corrupt}}
	for _, c := range probs {
		if !validProb(c.p) {
			return fmt.Errorf("chaos: %s probability %v outside [0,1]", c.name, c.p)
		}
	}
	if s.MaxExtraDelay < 0 {
		return fmt.Errorf("chaos: negative delay jitter %v", s.MaxExtraDelay)
	}
	for i, p := range s.Partitions {
		if p.Start < 0 || p.End <= p.Start {
			return fmt.Errorf("chaos: partition %d window [%v, %v) is empty", i, p.Start, p.End)
		}
		if p.A == p.B {
			return fmt.Errorf("chaos: partition %d partitions %v from itself", i, p.A)
		}
	}
	for i, c := range s.Crashes {
		if c.At < 0 {
			return fmt.Errorf("chaos: crash %d scheduled before start", i)
		}
		for j, d := range s.Crashes[:i] {
			if d.Victim != c.Victim {
				continue
			}
			if c.At < d.end() && d.At < c.end() {
				return fmt.Errorf("chaos: crashes %d and %d overlap on %v", j, i, c.Victim)
			}
		}
	}
	for i, f := range s.FsyncStalls {
		if f.Start < 0 || f.End <= f.Start {
			return fmt.Errorf("chaos: fsync stall %d window [%v, %v) is empty", i, f.Start, f.End)
		}
		if f.Stall <= 0 {
			return fmt.Errorf("chaos: fsync stall %d adds no latency (%v)", i, f.Stall)
		}
	}
	for i, f := range s.DiskFaults {
		if f.Start < 0 || f.End <= f.Start {
			return fmt.Errorf("chaos: disk fault %d window [%v, %v) is empty", i, f.Start, f.End)
		}
		for _, p := range []struct {
			name string
			p    float64
		}{{"write-err", f.WriteErr}, {"torn-write", f.TornWrite}, {"sync-err", f.SyncErr}, {"read-corrupt", f.ReadCorrupt}} {
			if !validProb(p.p) {
				return fmt.Errorf("chaos: disk fault %d %s probability %v outside [0,1]", i, p.name, p.p)
			}
		}
		if !f.active() {
			return fmt.Errorf("chaos: disk fault %d injects nothing", i)
		}
	}
	return nil
}

// Active reports whether the spec injects anything at all.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.Duplicate > 0 || s.Corrupt > 0 || s.MaxExtraDelay > 0 ||
		len(s.Partitions) > 0 || len(s.Crashes) > 0 || len(s.FsyncStalls) > 0 ||
		len(s.DiskFaults) > 0
}

// DiskFaultsFor reports whether any disk-fault window targets the victim
// (the live middleware wraps that node's stable log in a FaultVFS).
func (s Spec) DiskFaultsFor(victim msg.ProcID) bool {
	for _, f := range s.DiskFaults {
		if f.Victim == victim {
			return true
		}
	}
	return false
}

// FrameFaults reports whether the spec injects frame-level faults (anything
// the transport must apply per frame, as opposed to scheduled crashes and
// storage stalls).
func (s Spec) FrameFaults() bool { return s.draws() || len(s.Partitions) > 0 }

// draws reports whether a frame's verdict consumes randomness: any non-zero
// per-frame probability or jitter bound makes every unpartitioned frame draw
// at least once.
func (s Spec) draws() bool {
	return s.Drop > 0 || s.Duplicate > 0 || s.Corrupt > 0 || s.MaxExtraDelay > 0
}

// Verdict is the injector's decision for one frame.
type Verdict struct {
	// Drop discards the frame (a partition hit or a random drop).
	Drop bool
	// Duplicate delivers the frame twice.
	Duplicate bool
	// CorruptByte, when ≥ 0, is the frame byte index to XOR with
	// CorruptMask before the frame goes on the wire.
	CorruptByte int
	// CorruptMask is the bit pattern to flip (never zero when
	// CorruptByte ≥ 0).
	CorruptMask byte
	// ExtraDelay is additional delivery delay for this frame.
	ExtraDelay time.Duration
}

// Stats counts injected faults.
type Stats struct {
	// Frames is the number of verdicts issued.
	Frames uint64
	// Dropped counts random frame drops.
	Dropped uint64
	// Partitioned counts partition blocks: frames whose verdict was drawn
	// inside a window, plus stalled transmission attempts (BlockedAttempt).
	Partitioned uint64
	// Duplicated counts duplicated frames.
	Duplicated uint64
	// Corrupted counts bit-flipped frames.
	Corrupted uint64
	// Delayed counts frames given extra jitter.
	Delayed uint64
	// FsyncStalled counts stable-log fsyncs slowed by a stall window.
	FsyncStalled uint64
	// DiskWriteErrs counts injected clean write/metadata EIOs.
	DiskWriteErrs uint64
	// DiskTornWrites counts injected torn (partial-prefix) writes.
	DiskTornWrites uint64
	// DiskSyncErrs counts injected file and directory fsync EIOs.
	DiskSyncErrs uint64
	// DiskReadCorrupts counts injected read-time bit flips.
	DiskReadCorrupts uint64
}

// Injector makes deterministic per-frame decisions for one run of a Spec.
// It is safe for concurrent use by per-link writer goroutines: each directed
// link draws from its own generator, so cross-link goroutine interleaving
// cannot perturb any link's sequence.
type Injector struct {
	spec Spec
	// quietFrames counts the verdicts a quiet spec answers without the lock;
	// Stats adds it to stats.Frames, which the locked path alone increments.
	quietFrames atomic.Uint64

	// Obs holds the injector's metrics; the zero value disables them. Set
	// it before the run starts (FrameVerdict reads it, on the quiet path
	// without the lock).
	Obs Obs

	mu    sync.Mutex
	links map[link]*rand.Rand
	disks map[msg.ProcID]*rand.Rand
	stats Stats
}

// Obs bundles the injector's metrics: issued verdicts plus injected faults
// by kind. The zero value (all-nil metrics) is the disabled state.
type Obs struct {
	// Frames counts verdicts issued.
	Frames *obs.Counter
	// Dropped, Partitioned, Duplicated, Corrupted, Delayed, Stalled count
	// injected faults, labeled by kind on one family.
	Dropped, Partitioned, Duplicated, Corrupted, Delayed, Stalled *obs.Counter
}

// NewObs registers the injector metrics on r. A nil registry yields the zero
// (disabled) bundle.
func NewObs(r *obs.Registry) Obs {
	fault := func(kind string) *obs.Counter {
		return r.Counter("synergy_chaos_injected_faults_total",
			"Faults injected into the transport, by kind.", obs.L("kind", kind))
	}
	return Obs{
		Frames: r.Counter("synergy_chaos_frames_total",
			"Frames the injector issued a verdict for."),
		Dropped:     fault("drop"),
		Partitioned: fault("partition"),
		Duplicated:  fault("duplicate"),
		Corrupted:   fault("corrupt"),
		Delayed:     fault("delay"),
		Stalled:     fault("fsync-stall"),
	}
}

type link struct{ from, to msg.ProcID }

// NewInjector builds the injector for one run. The spec must validate.
func NewInjector(spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Injector{spec: spec, links: make(map[link]*rand.Rand), disks: make(map[msg.ProcID]*rand.Rand)}, nil
}

// Spec returns the scenario the injector runs.
func (i *Injector) Spec() Spec { return i.spec }

// linkRand returns the directed link's private generator, creating it at the
// link's first draw with a seed derived from (spec seed, link identity).
func (i *Injector) linkRand(l link) *rand.Rand {
	if rng, ok := i.links[l]; ok {
		return rng
	}
	seed := i.spec.Seed ^ (int64(l.from)+1)<<40 ^ (int64(l.to)+1)<<48 ^ 0x63686173
	rng := rand.New(rand.NewSource(seed))
	i.links[l] = rng
	return rng
}

// FrameVerdict decides the fate of one frame on the from→to link at the
// given elapsed run time. frameLen is the wire size (for picking the byte to
// corrupt). Draw order per link is fixed — drop, duplicate, corrupt (+2
// draws when it hits), jitter — so the sequence depends only on the link's
// own frame count. A spec without frame faults is answered without the lock,
// and one that never draws seeds no generator: the cluster asks once per
// frame on each of its N² directed links whatever the spec injects.
func (i *Injector) FrameVerdict(from, to msg.ProcID, elapsed time.Duration, frameLen int) Verdict {
	v := Verdict{CorruptByte: -1}
	draws := i.spec.draws()
	if !draws && len(i.spec.Partitions) == 0 {
		i.quietFrames.Add(1)
		i.Obs.Frames.Inc()
		return v
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.Frames++
	i.Obs.Frames.Inc()
	for _, p := range i.spec.Partitions {
		if p.covers(from, to, elapsed) {
			i.stats.Partitioned++
			i.Obs.Partitioned.Inc()
			v.Drop = true
			// No random draws for a partitioned frame: healing time,
			// not traffic, ends the window, so the post-heal draw
			// sequence depends only on the non-partitioned frame count.
			return v
		}
	}
	if !draws {
		return v
	}
	rng := i.linkRand(link{from: from, to: to})
	if i.spec.Drop > 0 && rng.Float64() < i.spec.Drop {
		i.stats.Dropped++
		i.Obs.Dropped.Inc()
		v.Drop = true
		return v
	}
	if i.spec.Duplicate > 0 && rng.Float64() < i.spec.Duplicate {
		i.stats.Duplicated++
		i.Obs.Duplicated.Inc()
		v.Duplicate = true
	}
	if i.spec.Corrupt > 0 && rng.Float64() < i.spec.Corrupt && frameLen > 0 {
		i.stats.Corrupted++
		i.Obs.Corrupted.Inc()
		v.CorruptByte = rng.Intn(frameLen)
		v.CorruptMask = byte(1 << rng.Intn(8))
	}
	if i.spec.MaxExtraDelay > 0 {
		if d := time.Duration(rng.Int63n(int64(i.spec.MaxExtraDelay) + 1)); d > 0 {
			i.stats.Delayed++
			i.Obs.Delayed.Inc()
			v.ExtraDelay = d
		}
	}
	return v
}

// Partitioned reports whether the from→to link is blocked at the given
// elapsed time, without consuming randomness or counting a frame.
func (i *Injector) Partitioned(from, to msg.ProcID, elapsed time.Duration) bool {
	for _, p := range i.spec.Partitions {
		if p.covers(from, to, elapsed) {
			return true
		}
	}
	return false
}

// BlockedAttempt reports whether the from→to link is blocked at the given
// elapsed time, counting the blocked transmission attempt when it is. The
// live writer's stall-and-retry loop calls this once per attempt: while a
// partition holds, the writer transmits nothing — verdict draws for the
// queued frames happen only after heal — so the blocked attempts themselves
// are the partition fault's observable manifestation, and counting them
// keeps the partition series nonzero however the window lands relative to
// the writer's batching.
func (i *Injector) BlockedAttempt(from, to msg.ProcID, elapsed time.Duration) bool {
	if !i.Partitioned(from, to, elapsed) {
		return false
	}
	i.mu.Lock()
	i.stats.Partitioned++
	i.Obs.Partitioned.Inc()
	i.mu.Unlock()
	return true
}

// HealAt returns the earliest elapsed time at or after the given one when the
// from→to link is open, walking overlapping or back-to-back partition
// windows. If the link is already open it returns elapsed unchanged.
func (i *Injector) HealAt(from, to msg.ProcID, elapsed time.Duration) time.Duration {
	t := elapsed
	for changed := true; changed; {
		changed = false
		for _, p := range i.spec.Partitions {
			if p.covers(from, to, t) && p.End > t {
				t = p.End
				changed = true
			}
		}
	}
	return t
}

// FsyncStall returns the extra latency the victim node's stable-log fsync
// pays at the given elapsed run time, counting an injected fault when a stall
// window is open. Windows targeting the same victim stack.
func (i *Injector) FsyncStall(victim msg.ProcID, elapsed time.Duration) time.Duration {
	var d time.Duration
	for _, f := range i.spec.FsyncStalls {
		if f.Victim == victim && f.Covers(elapsed) {
			d += f.Stall
		}
	}
	if d > 0 {
		i.mu.Lock()
		i.stats.FsyncStalled++
		i.Obs.Stalled.Inc()
		i.mu.Unlock()
	}
	return d
}

// diskRand returns the victim's private disk-fault generator, creating it on
// first use with a seed derived from (spec seed, victim). Callers hold i.mu.
func (i *Injector) diskRand(victim msg.ProcID) *rand.Rand {
	if rng, ok := i.disks[victim]; ok {
		return rng
	}
	seed := i.spec.Seed ^ (int64(victim)+1)<<16 ^ 0x6469736b
	rng := rand.New(rand.NewSource(seed))
	i.disks[victim] = rng
	return rng
}

// DiskVerdict decides the fate of one stable-log IO operation on the
// victim's disk at the given elapsed run time; n is the byte count at stake
// (write length, read result length). Outside any open window the verdict is
// clean and no randomness is consumed, so a window's draw sequence depends
// only on the IO the victim performs inside it. Overlapping windows combine
// by taking each probability's maximum; any Persistent window makes the
// whole instant persistent.
func (i *Injector) DiskVerdict(victim msg.ProcID, elapsed time.Duration, op storage.DiskOp, n int) storage.DiskVerdict {
	v := storage.CleanVerdict()
	var writeErr, torn, syncErr, readCorrupt float64
	persistent, open := false, false
	for _, f := range i.spec.DiskFaults {
		if f.Victim != victim || !f.Covers(elapsed) {
			continue
		}
		open = true
		persistent = persistent || f.Persistent
		writeErr = maxFloat(writeErr, f.WriteErr)
		torn = maxFloat(torn, f.TornWrite)
		syncErr = maxFloat(syncErr, f.SyncErr)
		readCorrupt = maxFloat(readCorrupt, f.ReadCorrupt)
	}
	if !open {
		return v
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	rng := i.diskRand(victim)
	switch op {
	case storage.OpWrite:
		if persistent || (writeErr > 0 && rng.Float64() < writeErr) {
			i.stats.DiskWriteErrs++
			v.Err = true
			return v
		}
		if torn > 0 && n > 0 && rng.Float64() < torn {
			i.stats.DiskTornWrites++
			v.Err = true
			v.TornN = rng.Intn(n)
			return v
		}
	case storage.OpSync, storage.OpSyncDir:
		if persistent || (syncErr > 0 && rng.Float64() < syncErr) {
			i.stats.DiskSyncErrs++
			v.Err = true
			return v
		}
	case storage.OpRead:
		if readCorrupt > 0 && n > 0 && rng.Float64() < readCorrupt {
			i.stats.DiskReadCorrupts++
			v.FlipByte = rng.Intn(n)
			v.FlipMask = byte(1 << rng.Intn(8))
			return v
		}
	case storage.OpCreate, storage.OpOpenAppend, storage.OpRename:
		if persistent {
			i.stats.DiskWriteErrs++
			v.Err = true
			return v
		}
	}
	return v
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Stats returns a snapshot of the fault counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.stats
	st.Frames += i.quietFrames.Load()
	return st
}
