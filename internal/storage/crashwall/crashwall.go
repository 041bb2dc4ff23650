// Package crashwall exhaustively explores crash points in the durable
// stable-storage path. It drives a fixed commit/compact/truncate workload (a
// Script) against an in-memory disk model (storage.MemVFS), simulates a crash
// after every single IO operation, enumerates the disk states that crash could
// leave behind under a strict post-crash model — the suffix written after
// the last fsync may be lost, torn, or reordered; renames are atomic but
// un-persisted until the directory fsync — and runs full recovery
// (OpenFileVFS → DecodeLog → Stable.Load → ResumeFromStable) on every one
// of them, asserting the durability invariants:
//
//   - recovery never errors and never panics, whatever the disk holds;
//   - no fsync-acked round is ever lost: every round whose Commit returned
//     success (and that the store still keeps: the newest-rounds window and
//     every round at or above the pin) is recovered with exactly the bytes
//     that were committed;
//   - recovered rounds are a strictly increasing sequence — the intact
//     prefix, with any torn tail discarded per the torn-tail rule;
//   - a durably truncated round never resurrects;
//   - every recovered payload is one the workload actually wrote (nothing
//     is fabricated by recovery); and
//   - the recovered log accepts a fresh commit, which a reopen then sees.
//
// The wall is the acceptance gate for any rework of the commit path (group
// commit, async acks): a change that loses an acked round at any crash
// point fails it.
package crashwall

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// logPath is the stable log the workload commits to (one directory, like
// the live middleware's layout).
const logPath = "wall/p2.stable"

// retention is the workload's window of newest rounds; a round that slides
// out of it below the pin may be compacted away, so only the window and the
// pinned rounds are obligated.
const retention = 4

// Script names a workload the wall drives.
type Script uint8

const (
	// Window commits through the newest-rounds window, truncates durably
	// and recommits.
	Window Script = iota
	// Pinned holds an old round with a pin while the window moves several
	// commits past it, then releases it, so one commit compacts every
	// released round away.
	Pinned
)

// Scripts lists every workload the wall drives.
var Scripts = []Script{Window, Pinned}

func (s Script) String() string {
	if s == Pinned {
		return "pinned"
	}
	return "window"
}

// Options configures an exploration.
type Options struct {
	// Script selects the workload (Window by default).
	Script Script
	// MaxOps bounds how many crash points are explored (the first MaxOps IO
	// operations of the workload). 0 explores every operation.
	MaxOps int
	// Mutate, when set, is applied to every post-crash disk image before
	// recovery runs — a test hook that injects damage the wall must catch
	// (losing an acked round has to produce violations, or the wall proves
	// nothing).
	Mutate func(img *storage.DiskImage)
}

// Violation is one invariant breach at one crash point.
type Violation struct {
	// Op is the crash point: the workload IO operation after which the
	// machine died.
	Op int `json:"op"`
	// Image labels the post-crash disk state (which pending effects
	// persisted).
	Image string `json:"image"`
	// Invariant names the broken rule.
	Invariant string `json:"invariant"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail"`
}

// Result summarizes an exploration.
type Result struct {
	// Script names the workload explored.
	Script string `json:"script"`
	// Ops is the workload's total IO operation count.
	Ops int `json:"ops"`
	// Explored is how many crash points were simulated.
	Explored int `json:"explored"`
	// Images is how many distinct post-crash disk states were recovered.
	Images int `json:"images"`
	// Violations holds every invariant breach found (empty on a green wall).
	Violations []Violation `json:"violations,omitempty"`
}

// model tracks what the workload is owed by the disk: the obligations and
// prohibitions each acked operation creates.
type model struct {
	// obligated maps rounds whose Commit was acknowledged (and that the
	// store still keeps) to their exact payload.
	obligated map[uint64][]byte
	// pin mirrors the store's pin: rounds at or above it stay obligated
	// below the window.
	pin uint64
	// forbidden marks rounds durably truncated away (and not since
	// re-attempted): recovery must never resurrect them.
	forbidden map[uint64]bool
	// attempts lists every payload ever written for a round — acked or not
	// — that could plausibly survive a crash. Recovery may surface any of
	// them, but nothing else.
	attempts map[uint64][][]byte
	// attemptSeq numbers commit attempts per round so every payload is
	// unique (a resurrected stale payload is then distinguishable).
	attemptSeq map[uint64]int
}

func newModel() *model {
	return &model{
		obligated:  map[uint64][]byte{},
		forbidden:  map[uint64]bool{},
		attempts:   map[uint64][][]byte{},
		attemptSeq: map[uint64]int{},
	}
}

// payloadFor builds the checkpoint payload for one commit attempt, byte-for-
// byte what Stable.Begin encodes.
func (m *model) payloadFor(round uint64) (*checkpoint.Checkpoint, []byte) {
	m.attemptSeq[round]++
	c := checkpoint.New(checkpoint.Stable, msg.P2)
	c.State.Step = round*1000 + uint64(m.attemptSeq[round])
	return c, checkpoint.AppendEncode(nil, c)
}

// sortedRounds returns m's keys in ascending order: map iteration is
// order-randomized per run, and the wall's violation reports (and the detflow
// discipline) demand deterministic traversal.
func sortedRounds[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// releaseObligations drops the obligated rounds the store stops keeping once
// one more round commits: those below the pin that leave the window. The
// commit's compaction may discard them even if it fails before acking, so
// they stop being obligated the moment the attempt starts.
func (m *model) releaseObligations() {
	window := sortedRounds(m.obligated)
	for len(window) > retention-1 && (m.pin == 0 || window[0] < m.pin) {
		delete(m.obligated, window[0])
		window = window[1:]
	}
}

// runWorkload drives a script against fs and returns the obligations the
// acked prefix established. After the crash point all IO fails, so the first
// failed step is the crash: the disk is frozen from then on, and later steps
// neither act nor move the obligations.
func runWorkload(fs storage.VFS, script Script) *model {
	m := newModel()
	fb, _, err := storage.OpenFileVFS(logPath, fs)
	if err != nil {
		return m // crashed during the initial open: nothing owed
	}
	defer fb.Close()
	var s storage.Stable
	s.SetRetention(retention)
	s.SetBackend(fb)

	crashed := false
	commit := func(round uint64) {
		if crashed {
			return
		}
		c, payload := m.payloadFor(round)
		// A fresh attempt makes this round's presence plausible again,
		// whatever a prior truncation decreed.
		delete(m.forbidden, round)
		m.attempts[round] = append(m.attempts[round], payload)
		if err := s.Begin(c); err != nil {
			return
		}
		m.releaseObligations()
		if err := s.Commit(round); err != nil {
			crashed = true
			return
		}
		m.obligated[round] = payload
	}
	pin := func(round uint64) {
		s.SetPin(round)
		m.pin = round
	}
	truncate := func(above uint64) {
		if crashed {
			return
		}
		// The compaction a truncate runs may destroy newer rounds even if
		// it fails before acking, so they stop being obligated the moment
		// the attempt starts; they become forbidden only once it acks.
		for _, r := range sortedRounds(m.obligated) {
			if r > above {
				delete(m.obligated, r)
			}
		}
		if err := s.TruncateAbove(above); err != nil {
			crashed = true
			return
		}
		for _, r := range sortedRounds(m.attempts) {
			if r > above {
				m.forbidden[r] = true
				m.attempts[r] = nil
			}
		}
	}

	if script == Pinned {
		// Round 2 stays through nine commits, eight rounds past the
		// window; releasing it lets round 13's commit compact 2–9 away.
		commit(1)
		pin(2)
		for r := uint64(2); r <= 12; r++ {
			commit(r)
		}
		pin(11)
		for r := uint64(13); r <= 15; r++ {
			commit(r)
		}
		return m
	}
	// Appends up to the slack bound (window 4 + slack 4), a durable
	// truncation, and post-truncate recommits.
	for r := uint64(1); r <= 8; r++ {
		commit(r)
	}
	truncate(6)
	for r := uint64(7); r <= 10; r++ {
		commit(r)
	}
	return m
}

// Explore runs the crash wall and returns what it found. It never returns
// an error: every failure mode is a Violation.
func Explore(opts Options) Result {
	// Measurement pass: run the workload to completion to learn its length.
	probe := storage.NewMemVFS()
	runWorkload(probe, opts.Script)
	res := Result{Script: opts.Script.String(), Ops: probe.Ops()}

	limit := res.Ops
	if opts.MaxOps > 0 && opts.MaxOps < limit {
		limit = opts.MaxOps
	}
	for k := 0; k <= limit; k++ {
		fs := storage.NewMemVFS()
		fs.SetCrashAfter(k)
		m := runWorkload(fs, opts.Script)
		res.Explored++
		for _, img := range fs.CrashImages() {
			if opts.Mutate != nil {
				opts.Mutate(&img)
			}
			res.Images++
			res.Violations = append(res.Violations, checkImage(k, img, m)...)
		}
	}
	return res
}

// checkImage runs full recovery on one post-crash disk image and returns
// every invariant breach.
func checkImage(op int, img storage.DiskImage, m *model) (vs []Violation) {
	add := func(invariant, format string, args ...any) {
		vs = append(vs, Violation{Op: op, Image: img.Label, Invariant: invariant,
			Detail: fmt.Sprintf(format, args...)})
	}
	defer func() {
		if r := recover(); r != nil {
			add("no-panic", "recovery panicked: %v", r)
		}
	}()

	fs := storage.FromImage(img)
	fb, info, err := storage.OpenFileVFS(logPath, fs)
	if err != nil {
		add("recovery-clean", "OpenFileVFS failed: %v", err)
		return vs
	}
	defer fb.Close()
	recs := info.Records

	// Recovered rounds are strictly increasing (the monotone intact prefix).
	for i := 1; i < len(recs); i++ {
		if recs[i].Round <= recs[i-1].Round {
			add("monotone-prefix", "round %d follows %d", recs[i].Round, recs[i-1].Round)
		}
	}
	recovered := map[uint64][]byte{}
	for _, r := range recs {
		recovered[r.Round] = r.Data
	}

	// No fsync-acked round is ever lost, and its bytes are exact.
	for _, round := range sortedRounds(m.obligated) {
		want := m.obligated[round]
		got, ok := recovered[round]
		if !ok {
			add("acked-round-durable", "acked round %d lost", round)
			continue
		}
		if !bytes.Equal(got, want) {
			add("acked-round-durable", "acked round %d has wrong bytes (%d vs %d)", round, len(got), len(want))
		}
	}

	// A durably truncated round never resurrects, and recovery never
	// fabricates a payload the workload did not write.
	for _, round := range sortedRounds(recovered) {
		data := recovered[round]
		if m.forbidden[round] {
			add("truncated-stays-dead", "truncated round %d resurrected", round)
		}
		match := false
		for _, attempt := range m.attempts[round] {
			if bytes.Equal(data, attempt) {
				match = true
				break
			}
		}
		if !match {
			add("no-fabrication", "round %d recovered with bytes never written for it", round)
		}
	}

	// The TB recovery entry point accepts the recovered history.
	cp, cperr := newRecoveryCheckpointer()
	if cperr != nil {
		add("recovery-clean", "build checkpointer: %v", cperr)
		return vs
	}
	if err := cp.Stable.Load(recs); err != nil {
		add("recovery-clean", "Stable.Load: %v", err)
		return vs
	}
	cp.Stable.SetBackend(fb)
	if len(recs) == 0 {
		if _, err := cp.ResumeFromStable(); err != tb.ErrNoStableCheckpoint {
			add("recovery-clean", "empty history resume: %v", err)
		}
	} else {
		restored, err := cp.ResumeFromStable()
		if err != nil {
			add("recovery-clean", "ResumeFromStable: %v", err)
			return vs
		}
		last := recs[len(recs)-1].Round
		if cp.Ndc() != last {
			add("recovery-clean", "Ndc = %d after resume, want %d", cp.Ndc(), last)
		}
		if restored == nil || restored.State == nil {
			add("recovery-clean", "resumed checkpoint did not decode")
		}
	}

	// The recovered log is writable: a fresh commit lands and a reopen
	// sees it.
	next := uint64(1)
	if len(recs) > 0 {
		next = recs[len(recs)-1].Round + 1
	}
	fresh := checkpoint.New(checkpoint.Stable, msg.P2)
	fresh.State.Step = next * 1_000_000
	want := checkpoint.AppendEncode(nil, fresh)
	if err := cp.Stable.Begin(fresh); err != nil {
		add("writable-after-recovery", "Begin: %v", err)
		return vs
	}
	if err := cp.Stable.Commit(next); err != nil {
		add("writable-after-recovery", "Commit(%d): %v", next, err)
		return vs
	}
	fb2, info2, err := storage.OpenFileVFS(logPath, fs)
	if err != nil {
		add("writable-after-recovery", "reopen: %v", err)
		return vs
	}
	defer fb2.Close()
	found := false
	for _, r := range info2.Records {
		if r.Round == next {
			found = bytes.Equal(r.Data, want)
		}
	}
	if !found {
		add("writable-after-recovery", "post-recovery round %d missing or wrong after reopen", next)
	}
	return vs
}

// nullRuntime satisfies tb.Runtime without any clock: recovery alone never
// arms a timer.
type nullRuntime struct{}

func (nullRuntime) Now() vtime.Time { return 0 }

func (nullRuntime) After(time.Duration, func()) seam.Timer { return seam.Timer{} }
func (nullRuntime) Cancel(seam.Timer)                      {}

// nullHost satisfies tb.Host for a checkpointer that only ever resumes.
type nullHost struct{}

func (nullHost) EffectiveDirty() bool { return false }

func (nullHost) StableContents(fromVolatile bool) (checkpoint.Encoder, bool) {
	if fromVolatile {
		return nil, false
	}
	return checkpoint.New(checkpoint.Stable, msg.P2), true
}

func (nullHost) ReleaseHeld() {}

// newRecoveryCheckpointer builds the minimal checkpointer the recovery
// invariants are checked through — the same ResumeFromStable entry point the
// live middleware uses after a node restart.
func newRecoveryCheckpointer() (*tb.Checkpointer, error) {
	cfg := tb.Config{
		Variant:  tb.Adapted,
		Interval: 100 * time.Millisecond,
		Clock:    vtime.ClockConfig{MaxDeviation: time.Millisecond, DriftRate: 1e-4},
		MaxDelay: 2 * time.Millisecond,
	}
	clock := vtime.NewClock(cfg.Clock, rand.New(rand.NewSource(1)))
	return tb.NewCheckpointer(msg.P2, cfg, clock, nullRuntime{}, nullHost{}, nil)
}
