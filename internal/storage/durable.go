package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// This file adds the durable half of stable storage: a file-backed Backend
// the live middleware plugs into a Stable so committed checkpoint rounds
// survive a real node-process crash. The simulator keeps the in-memory
// default (no backend), so the discrete-event experiments stay free of I/O.
//
// On-disk format (everything little-endian):
//
//	file   = magic | record*
//	magic  = "SYNSTBL1" (8 bytes)
//	record = round uint64 | len uint32 | crc uint32 | data[len]
//
// where crc is the CRC-32 (IEEE) of data. Records are append-only and carry
// strictly increasing rounds; each commit appends one record and fsyncs.
// Compaction — triggered when the log accumulates evicted rounds, and on
// every durable truncation — rewrites the retained records to a temp file,
// fsyncs it, atomically renames it over the log, and fsyncs the directory,
// so a crash at any instant leaves either the old intact log or the new one.
//
// Recovery scans the log front to back and stops at the first torn or
// corrupt record (short header, absurd length, CRC mismatch, non-increasing
// round): everything before it is the durable history, and the newest round
// in that prefix is the one recovery restores. The damaged tail is discarded
// by an immediate compaction, so a second crash cannot resurrect it.
//
// All file IO goes through a VFS (vfs.go). The OS implementation is the
// default; FaultVFS injects EIO/short-write/bit-flip faults for tests and
// chaos scenarios, and MemVFS models post-crash disk states for the
// crash-point explorer (internal/storage/crashwall). A failed append or
// fsync marks the physical tail torn: the retry path (and every later
// commit) then rewrites the whole log via compaction instead of appending
// again, because a blind re-append would place a duplicate round after the
// damage and recovery would discard every acked round behind it.

// logMagic identifies (and versions) a stable-storage log file.
const logMagic = "SYNSTBL1"

// recordHeaderSize is round (8) + len (4) + crc (4).
const recordHeaderSize = 16

// maxRecordSize bounds a single record's data length; a length field above
// it is treated as corruption rather than an allocation request. Checkpoints
// are a few hundred bytes; 1 MiB leaves three orders of magnitude of slack.
const maxRecordSize = 1 << 20

// compactSlack is how many appended records beyond the retained window the
// log may accumulate before a commit triggers compaction. The window is two
// rounds plus any a pin holds; a slack of 4 keeps renames rare while bounding
// the file to a handful of KiB.
const compactSlack = 4

// Record is one durable committed round.
type Record struct {
	// Round is the TB stable-checkpoint round number.
	Round uint64
	// Data is the encoded checkpoint.
	Data []byte
}

// Backend persists a Stable's committed rounds. Implementations must make
// Commit durable before returning: once it reports success the round must
// survive a process crash. A failed Commit must be retryable: the caller may
// invoke Commit again with the same arguments, and the implementation must
// not let the failed attempt's partial effects corrupt the log.
type Backend interface {
	// Commit durably appends one committed round. keepFrom is the lowest
	// round the in-memory store still keeps after the commit (its window
	// and pinned rounds); the backend may discard older rounds at its
	// leisure.
	Commit(round uint64, data []byte, keepFrom uint64) error
	// TruncateAbove durably discards every round above the given one
	// (recovery to an older round invalidates everything after it).
	TruncateAbove(round uint64) error
	// Close releases the backing resources (a killed node's file handle).
	Close() error
}

// FileBackend is the file-backed Backend. It is not safe for concurrent use;
// the Stable it serves is already serialized under its node's lock.
type FileBackend struct {
	path string
	dir  string
	fs   VFS
	f    File

	// Obs holds the backend's metrics; the zero value disables them.
	Obs FileObs

	// PreSync, when set, runs immediately before Commit's fsync. Fault
	// injection hooks in here (a chaos fsync-stall window sleeps inside
	// the closure) so the storage layer itself stays free of clocks.
	PreSync func()

	// live mirrors the records currently relevant in the log, oldest
	// first, so compaction can rewrite without re-reading the file.
	live []Record
	// logged counts records physically present in the log file (live
	// records plus evicted-but-not-yet-compacted ones).
	logged int
	// tornTail is set when an append or fsync fails: the physical tail
	// may hold a torn or duplicate record, so the next commit must
	// rewrite the log (compact) rather than append after the damage.
	tornTail bool
	// closed is set by Close; further commits are rejected.
	closed bool
}

// RecoveredInfo describes what recovery found in an existing log.
type RecoveredInfo struct {
	// Records are the intact rounds, oldest first.
	Records []Record
	// TailDamaged reports that a torn or corrupt tail was detected and
	// discarded (recovery fell back to the newest intact round).
	TailDamaged bool
	// DroppedBytes is the size of the discarded tail.
	DroppedBytes int
}

// OpenFile opens (creating if absent) the stable log at path on the real
// filesystem, recovers its intact records, durably discards any damaged
// tail, and returns the backend ready for appends alongside what was
// recovered.
func OpenFile(path string) (*FileBackend, RecoveredInfo, error) {
	return OpenFileVFS(path, OSVFS{})
}

// OpenFileVFS is OpenFile against an explicit VFS (a fault injector or the
// crash-point explorer's in-memory disk model).
func OpenFileVFS(path string, fs VFS) (*FileBackend, RecoveredInfo, error) {
	var info RecoveredInfo
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, info, fmt.Errorf("storage: read stable log: %w", err)
	}
	recs, intact, damaged := DecodeLog(data)
	info.Records = recs
	info.TailDamaged = damaged
	info.DroppedBytes = len(data) - intact

	b := &FileBackend{path: path, dir: filepath.Dir(path), fs: fs, live: recs, logged: len(recs)}
	if damaged {
		// Rewrite the intact prefix so the damaged tail cannot be
		// misread after a later append lands on top of it.
		if err := b.compact(); err != nil {
			return nil, info, err
		}
	} else if err := b.openAppend(); err != nil {
		return nil, info, err
	}
	return b, info, nil
}

var _ Backend = (*FileBackend)(nil)

// DecodeLog parses a stable log image, returning the intact records (oldest
// first), the byte length of the intact prefix, and whether a damaged
// (torn or corrupt) tail was detected after it. It never panics, whatever
// the input: this is the surface the fuzz target drives.
func DecodeLog(data []byte) (recs []Record, intact int, damaged bool) {
	if len(data) == 0 {
		return nil, 0, false
	}
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != string(logMagic) {
		return nil, 0, true
	}
	off := len(logMagic)
	lastRound := uint64(0)
	for off < len(data) {
		if len(data)-off < recordHeaderSize {
			return recs, off, true // torn header
		}
		round := binary.LittleEndian.Uint64(data[off:])
		n := binary.LittleEndian.Uint32(data[off+8:])
		crc := binary.LittleEndian.Uint32(data[off+12:])
		if n > maxRecordSize {
			return recs, off, true // absurd length: corruption
		}
		body := off + recordHeaderSize
		if len(data)-body < int(n) {
			return recs, off, true // torn body
		}
		payload := data[body : body+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, true // bit-flipped record
		}
		if round <= lastRound {
			// Rounds are strictly increasing; a duplicate or regressed
			// round marks the start of garbage (e.g. a replayed commit
			// marker). Fall back to the newest intact round before it.
			return recs, off, true
		}
		lastRound = round
		recs = append(recs, Record{Round: round, Data: append([]byte(nil), payload...)})
		off = body + int(n)
	}
	return recs, off, false
}

// AppendRecord serializes one record onto buf (the exact bytes Commit
// appends to the log). Exposed for tests and the fuzz target's seed corpus.
func AppendRecord(buf []byte, r Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Round)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(r.Data))
	return append(buf, r.Data...)
}

// Commit implements Backend: append one record, fsync, and compact when the
// log has accumulated enough evicted rounds. A failed Commit may be retried
// with the same arguments: the retained window is updated idempotently (a
// round already recorded by the failed attempt is replaced, not duplicated)
// and a torn physical tail is repaired by a full rewrite instead of a
// second append.
func (b *FileBackend) Commit(round uint64, data []byte, keepFrom uint64) error {
	if b.closed {
		return fmt.Errorf("storage: stable log %s is closed", b.path)
	}
	commitStart := b.Obs.CommitLatency.StartTimer()
	rec := Record{Round: round, Data: append([]byte(nil), data...)}
	kept := b.live[:0]
	for _, r := range b.live {
		if r.Round >= keepFrom && r.Round != round {
			kept = append(kept, r)
		}
	}
	b.live = append(kept, rec)

	if b.tornTail || b.f == nil {
		// A previous append, fsync or compaction failed: the log's tail
		// is suspect (or the file handle is gone). Rewrite the whole log
		// — which both repairs the tail and makes this round durable.
		err := b.compact()
		b.Obs.CommitLatency.ObserveSince(commitStart)
		return err
	}

	if _, err := b.f.Write(AppendRecord(nil, rec)); err != nil {
		b.tornTail = true
		return fmt.Errorf("storage: append round %d: %w", round, err)
	}
	if b.PreSync != nil {
		b.PreSync()
	}
	fsyncStart := b.Obs.FsyncLatency.StartTimer()
	if err := b.f.Sync(); err != nil {
		// The record's bytes may or may not have reached the platter;
		// either way the tail is unaccounted for until rewritten.
		b.tornTail = true
		return fmt.Errorf("storage: fsync round %d: %w", round, err)
	}
	b.Obs.FsyncLatency.ObserveSince(fsyncStart)
	b.logged++
	if b.logged > len(b.live)+compactSlack {
		err := b.compact()
		b.Obs.CommitLatency.ObserveSince(commitStart)
		return err
	}
	b.Obs.CommitLatency.ObserveSince(commitStart)
	return nil
}

// TruncateAbove implements Backend: durably drop rounds above round via a
// full rewrite (recovery must never resurrect a rolled-back round).
func (b *FileBackend) TruncateAbove(round uint64) error {
	if b.closed {
		return fmt.Errorf("storage: stable log %s is closed", b.path)
	}
	kept := b.live[:0]
	for _, r := range b.live {
		if r.Round <= round {
			kept = append(kept, r)
		}
	}
	b.live = kept
	return b.compact()
}

// compact rewrites the live records through a temp file, an fsync, an atomic
// rename and a directory fsync, then reopens the log for appends. Any
// failure leaves the old log untouched on disk (the rename never happened,
// or happened atomically) and the backend retryable: the next Commit or
// TruncateAbove compacts again.
func (b *FileBackend) compact() error {
	b.Obs.Compactions.Inc()
	if b.f != nil {
		b.f.Close()
		b.f = nil
	}
	tmp := b.path + ".tmp"
	buf := make([]byte, 0, len(logMagic)+len(b.live)*(recordHeaderSize+256))
	buf = append(buf, logMagic...)
	for _, r := range b.live {
		buf = AppendRecord(buf, r)
	}
	f, err := b.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: create temp log: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("storage: write temp log: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: fsync temp log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close temp log: %w", err)
	}
	if err := b.fs.Rename(tmp, b.path); err != nil {
		return fmt.Errorf("storage: rename temp log: %w", err)
	}
	if err := b.fs.SyncDir(b.dir); err != nil {
		return err
	}
	// The rename + dir-fsync made the rewritten log durable under its
	// final name: whatever damage the old tail held is gone.
	b.logged = len(b.live)
	b.tornTail = false
	return b.openAppend()
}

// openAppend (re)opens the log for appending, initializing a fresh file with
// the magic header. Initialization ends with a directory fsync: a file
// fsync alone does not guarantee the new *directory entry* survives a
// crash, and losing the entry would silently discard every acked round in
// the file (a hole the crash-point explorer's strict post-crash model
// surfaces).
func (b *FileBackend) openAppend() error {
	f, size, err := b.fs.OpenAppend(b.path)
	if err != nil {
		return fmt.Errorf("storage: open stable log: %w", err)
	}
	if size == 0 {
		if _, err := f.Write([]byte(logMagic)); err != nil {
			f.Close()
			return fmt.Errorf("storage: write log header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("storage: fsync log header: %w", err)
		}
		if err := b.fs.SyncDir(b.dir); err != nil {
			f.Close()
			return err
		}
	}
	b.f = f
	return nil
}

// Close implements Backend.
func (b *FileBackend) Close() error {
	b.closed = true
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// Path returns the backing file's path.
func (b *FileBackend) Path() string { return b.path }
