// Package storage models the stable storage tier the coordinated protocols
// write checkpoints to: disk, which survives crashes and supports the adapted
// TB protocol's abort-and-replace write semantics. The volatile tier (RAM,
// cheap but lost on a hardware fault) is the MDCD process's own slot,
// mdcd.Volatile.
package storage

import (
	"errors"
	"fmt"

	"github.com/synergy-ft/synergy/internal/checkpoint"
)

// Stable storage errors.
var (
	// ErrWriteInProgress is returned by Begin when a previous write has not
	// been committed; the TB protocol never overlaps checkpoint writes.
	ErrWriteInProgress = errors.New("storage: stable write already in progress")
	// ErrNoWrite is returned by Replace/Commit without a pending write.
	ErrNoWrite = errors.New("storage: no stable write in progress")
	// ErrCorrupt is returned when the stored bytes fail to decode.
	ErrCorrupt = errors.New("storage: stored checkpoint is corrupt")
)

// Stable is a process's stable-storage checkpoint area. Contents are held in
// encoded form — exactly the bytes a disk would hold — and survive node
// crashes. Writes follow the adapted TB protocol's write_disk semantics: a
// write begins with initial contents, may be replaced while still in progress
// (when the dirty bit flips during the blocking period), and becomes durable
// only at commit.
//
// Retention is derived, not configured. The store keeps its two most recent
// committed rounds (time-based protocols keep the previous checkpoint until
// every process has established the new one) and every round at or above its
// pin: the assembly sets the pin to the round its own recovery would restore
// were every node that can still rejoin to rejoin now (SetPin). Recovery
// restores the highest round every live process has committed, which may lie
// any number of rounds behind a process's own latest while a peer lags or is
// down.
type Stable struct {
	committed []committedRound
	pending   []byte
	inFlight  bool
	retention int
	pin       uint64

	// backend, when set, makes commits durable: every Commit is written
	// through before it is acknowledged, and TruncateAbove rewrites the
	// backing log. Nil (the default) keeps the area purely in-memory —
	// the simulator's configuration.
	backend Backend

	// scratch is the recycled encode buffer behind pending. Commit hands
	// the buffer over to the committed history, and a round it evicts
	// donates its buffer back — so in steady state the periodic stable
	// writes cycle through a fixed set of buffers instead of allocating
	// one per Begin/Replace.
	scratch []byte

	commits  uint64
	replaces uint64
}

type committedRound struct {
	round uint64
	data  []byte
}

// defaultHistoryDepth is how many of the newest committed rounds are kept
// whatever the pin.
const defaultHistoryDepth = 2

// SetRetention raises the number of newest committed rounds kept (values
// below the default are ignored): a fixed window for a store that no
// assembly pins, such as a benchmark's.
func (s *Stable) SetRetention(rounds int) {
	if rounds > s.retention {
		s.retention = rounds
	}
}

func (s *Stable) historyDepth() int {
	if s.retention > defaultHistoryDepth {
		return s.retention
	}
	return defaultHistoryDepth
}

// SetPin keeps, from the next Commit on, every committed round at or above
// round besides the newest ones; rounds below it are released. 0 pins
// nothing: a recovery that finds no common round restores genesis.
func (s *Stable) SetPin(round uint64) { s.pin = round }

// Begin starts a stable write with the given initial contents, encoded at
// once into the store's recycled buffer.
func (s *Stable) Begin(c checkpoint.Encoder) error {
	if s.inFlight {
		return ErrWriteInProgress
	}
	s.pending = c.AppendTo(s.scratch[:0])
	s.scratch = s.pending
	s.inFlight = true
	return nil
}

// Replace aborts the in-progress write and restarts it with new contents
// (the adapted TB algorithm's response to a dirty-bit change during the
// blocking period).
func (s *Stable) Replace(c checkpoint.Encoder) error {
	if !s.inFlight {
		return ErrNoWrite
	}
	s.pending = c.AppendTo(s.pending[:0])
	s.scratch = s.pending
	s.replaces++
	return nil
}

// Commit makes the pending write durable as the given round. Rounds must be
// committed in increasing order. With a backend attached, the round is
// written through (and fsynced) before the commit is acknowledged. A backend
// failure leaves the previous committed rounds intact and the write still
// in flight, so the caller can retry the same Commit (transient EIO) or
// Abandon it and fail-stop — the decision belongs to the checkpointer, not
// the storage layer.
func (s *Stable) Commit(round uint64) error {
	if !s.inFlight {
		return ErrNoWrite
	}
	if n := len(s.committed); n > 0 && s.committed[n-1].round >= round {
		return fmt.Errorf("storage: commit round %d not above %d", round, s.committed[n-1].round)
	}
	keep := s.firstKept()
	if s.backend != nil {
		keepFrom := round
		if keep < len(s.committed) {
			keepFrom = s.committed[keep].round
		}
		if err := s.backend.Commit(round, s.pending, keepFrom); err != nil {
			return fmt.Errorf("storage: durable commit round %d: %w", round, err)
		}
	}
	s.committed = append(s.committed, committedRound{round: round, data: s.pending})
	// The committed history now owns the pending buffer; the next Begin
	// must not scribble over it, so detach scratch and let a round this
	// commit evicts donate its buffer instead.
	s.scratch = nil
	if keep > 0 {
		s.scratch = s.committed[keep-1].data[:0]
		s.committed = append(s.committed[:0], s.committed[keep:]...)
	}
	s.pending = nil
	s.inFlight = false
	s.commits++
	return nil
}

// Abandon drops an in-progress write without committing (used when a crash
// interrupts checkpoint establishment; the previous committed checkpoint
// remains intact).
func (s *Stable) Abandon() {
	s.pending = nil
	s.inFlight = false
}

// InFlight reports whether a write is in progress.
func (s *Stable) InFlight() bool { return s.inFlight }

// Latest decodes and returns the most recent committed checkpoint. The
// boolean is false if nothing has ever been committed.
func (s *Stable) Latest() (*checkpoint.Checkpoint, bool, error) {
	if len(s.committed) == 0 {
		return nil, false, nil
	}
	return s.decode(s.committed[len(s.committed)-1].data)
}

// Round decodes the checkpoint committed as the given round, if retained.
func (s *Stable) Round(round uint64) (*checkpoint.Checkpoint, bool, error) {
	for _, c := range s.committed {
		if c.round == round {
			return s.decode(c.data)
		}
	}
	return nil, false, nil
}

// LatestRound returns the highest committed round number (0 if none).
func (s *Stable) LatestRound() uint64 {
	if len(s.committed) == 0 {
		return 0
	}
	return s.committed[len(s.committed)-1].round
}

// TruncateAbove discards committed rounds newer than round: recovery to an
// older round invalidates everything after it. With a backend attached the
// truncation is durable before it returns — a restart must never resurrect
// a rolled-back round.
func (s *Stable) TruncateAbove(round uint64) error {
	kept := s.committed[:0]
	for _, c := range s.committed {
		if c.round <= round {
			kept = append(kept, c)
		}
	}
	s.committed = kept
	if s.backend != nil {
		if err := s.backend.TruncateAbove(round); err != nil {
			return fmt.Errorf("storage: durable truncate above %d: %w", round, err)
		}
	}
	return nil
}

// firstKept returns the index of the oldest committed round the store still
// holds once one more round commits: the newest rounds up to the history
// depth, the committing one among them, and below them every round at or
// above the pin (the backend may discard older ones).
func (s *Stable) firstKept() int {
	i := max(len(s.committed)+1-s.historyDepth(), 0)
	for s.pin > 0 && i > 0 && s.committed[i-1].round >= s.pin {
		i--
	}
	return i
}

// SetBackend attaches a durability backend. Rounds already committed in
// memory are not retroactively persisted; attach before the first commit
// (or immediately after Load, whose records came from the backend anyway).
func (s *Stable) SetBackend(b Backend) { s.backend = b }

// Backend returns the attached durability backend (nil when in-memory).
func (s *Stable) Backend() Backend { return s.backend }

// Load seeds the committed history from recovered records (oldest first,
// strictly increasing rounds), replacing whatever the area held. Everything
// loaded stays until the next Commit applies the pin.
func (s *Stable) Load(recs []Record) error {
	var last uint64
	for _, r := range recs {
		if r.Round <= last {
			return fmt.Errorf("storage: load rounds not increasing (%d after %d)", r.Round, last)
		}
		last = r.Round
	}
	s.committed = s.committed[:0]
	for _, r := range recs {
		s.committed = append(s.committed, committedRound{round: r.Round, data: append([]byte(nil), r.Data...)})
	}
	s.pending = nil
	s.scratch = nil
	s.inFlight = false
	return nil
}

func (s *Stable) decode(data []byte) (*checkpoint.Checkpoint, bool, error) {
	c, err := checkpoint.Decode(data)
	if err != nil {
		return nil, false, errors.Join(ErrCorrupt, err)
	}
	return c, true, nil
}

// Bytes returns the total size of the retained checkpoints, an overhead
// metric.
func (s *Stable) Bytes() int {
	n := 0
	for _, c := range s.committed {
		n += len(c.data)
	}
	return n
}

// Commits returns the number of committed stable checkpoints.
func (s *Stable) Commits() uint64 { return s.commits }

// Replaces returns how many times an in-progress write was replaced.
func (s *Stable) Replaces() uint64 { return s.replaces }
