package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Stable storage holds encoded bytes, not live pointers: a checkpoint is
// serialized when written to disk and parsed again on recovery, exactly as a
// real implementation would, so codec bugs surface in recovery tests.

const codecVersion = 1

// Codec errors.
var (
	// ErrShortBuffer indicates truncated input.
	ErrShortBuffer = errors.New("checkpoint: short buffer")
	// ErrBadVersion indicates an unknown codec version byte.
	ErrBadVersion = errors.New("checkpoint: unknown codec version")
)

const (
	flagDirty byte = 1 << iota
	flagCorrupted
)

// Encoder writes one checkpoint's encoding. A *Checkpoint is one; a stable
// write's host is another, encoding the contents it holds straight into the
// storage buffer with no record in between.
type Encoder interface {
	// AppendTo appends the encoding to buf and returns the extended buffer.
	AppendTo(buf []byte) []byte
}

// Encode serializes the checkpoint deterministically (map keys sorted).
func Encode(c *Checkpoint) []byte {
	return AppendEncode(nil, c)
}

// AppendEncode serializes the checkpoint deterministically (map keys sorted),
// appending to buf.
func AppendEncode(buf []byte, c *Checkpoint) []byte { return c.AppendTo(buf) }

// AppendTo implements Encoder: the header, the three counter sets in
// ascending key order, then the unacknowledged messages.
func (c *Checkpoint) AppendTo(buf []byte) []byte {
	if buf == nil {
		buf = make([]byte, 0, 64+len(c.Unacked)*msg.EncodedSize)
	}
	buf = AppendHeader(buf, c.Kind, c.Proc, c.TakenAt, c.Ndc, c.Dirty, c.MsgSN, c.State)
	buf = appendCounts(buf, c.SentTo)
	buf = appendCounts(buf, c.RecvFrom)
	buf = appendCounts(buf, c.ValidSN)
	return msg.EncodeSlice(buf, c.Unacked)
}

// AppendHeader writes a checkpoint's fixed-size part, everything before its
// counter sets. An encoder follows it with SentTo, RecvFrom and ValidSN
// (AppendCounts) and the unacknowledged set (msg.EncodeSlice's format).
func AppendHeader(buf []byte, kind Kind, proc msg.ProcID, takenAt vtime.Time, ndc uint64, dirty bool, msgSN uint64, state *app.State) []byte {
	buf = append(buf, codecVersion, byte(kind), byte(proc))
	buf = appendU64(buf, uint64(takenAt))
	buf = appendU64(buf, ndc)
	var flags byte
	if dirty {
		flags |= flagDirty
	}
	if state.Corrupted {
		flags |= flagCorrupted
	}
	buf = append(buf, flags)
	buf = appendU64(buf, msgSN)
	buf = appendU64(buf, state.Step)
	buf = appendU64(buf, uint64(state.Acc))
	return appendU64(buf, state.Hash)
}

// Decode parses a checkpoint produced by Encode.
func Decode(src []byte) (*Checkpoint, error) {
	if len(src) < 3 {
		return nil, ErrShortBuffer
	}
	if src[0] != codecVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, src[0])
	}
	c := &Checkpoint{
		Kind:  Kind(src[1]),
		Proc:  msg.ProcID(src[2]),
		State: app.NewState(),
	}
	src = src[3:]
	var (
		v   uint64
		err error
	)
	if v, src, err = readU64(src); err != nil {
		return nil, err
	}
	c.TakenAt = vtime.Time(v)
	if c.Ndc, src, err = readU64(src); err != nil {
		return nil, err
	}
	if len(src) < 1 {
		return nil, ErrShortBuffer
	}
	flags := src[0]
	src = src[1:]
	c.Dirty = flags&flagDirty != 0
	c.State.Corrupted = flags&flagCorrupted != 0
	if c.MsgSN, src, err = readU64(src); err != nil {
		return nil, err
	}
	if c.State.Step, src, err = readU64(src); err != nil {
		return nil, err
	}
	if v, src, err = readU64(src); err != nil {
		return nil, err
	}
	c.State.Acc = int64(v)
	if c.State.Hash, src, err = readU64(src); err != nil {
		return nil, err
	}
	if c.SentTo, src, err = readCounts(src); err != nil {
		return nil, err
	}
	if c.RecvFrom, src, err = readCounts(src); err != nil {
		return nil, err
	}
	if c.ValidSN, src, err = readCounts(src); err != nil {
		return nil, err
	}
	if c.Unacked, src, err = msg.DecodeSlice(src); err != nil {
		return nil, err
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(src))
	}
	return c, nil
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func readU64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, src, ErrShortBuffer
	}
	return binary.LittleEndian.Uint64(src), src[8:], nil
}

// appendCounts writes m's entries in ascending key order. A ProcID is a
// byte, so one walk over the map into a presence set and a value table on the
// stack orders the keys with no key slice and no sort.
func appendCounts(dst []byte, m map[msg.ProcID]uint64) []byte {
	var present [4]uint64
	var vals [256]uint64
	for k, v := range m {
		present[k>>6] |= 1 << (k & 63)
		vals[k] = v
	}
	return appendSet(dst, &present, vals[:])
}

// AppendCounts writes a counter set held densely, vals[k] the counter of
// ProcID k (at most 256 of them), as the map of its non-zero entries encodes:
// a zero counter is an absent one, as in every set the protocol keeps.
func AppendCounts(dst []byte, vals []uint64) []byte {
	var present [4]uint64
	for k, v := range vals {
		if v != 0 {
			present[k>>6] |= 1 << (k & 63)
		}
	}
	return appendSet(dst, &present, vals)
}

// appendSet writes the counters present names in ascending key order: their
// number, then each key and its value in vals.
func appendSet(dst []byte, present *[4]uint64, vals []uint64) []byte {
	n := 0
	for _, set := range present {
		n += bits.OnesCount64(set)
	}
	dst = append(dst, byte(n))
	for w, set := range present {
		for ; set != 0; set &= set - 1 {
			k := w<<6 | bits.TrailingZeros64(set)
			dst = append(dst, byte(k))
			dst = appendU64(dst, vals[k])
		}
	}
	return dst
}

func readCounts(src []byte) (map[msg.ProcID]uint64, []byte, error) {
	if len(src) < 1 {
		return nil, src, ErrShortBuffer
	}
	n := int(src[0])
	src = src[1:]
	out := make(map[msg.ProcID]uint64, n)
	for i := 0; i < n; i++ {
		if len(src) < 9 {
			return nil, src, ErrShortBuffer
		}
		out[msg.ProcID(src[0])] = binary.LittleEndian.Uint64(src[1:])
		src = src[9:]
	}
	return out, src, nil
}
