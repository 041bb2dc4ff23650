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

// Encode serializes the checkpoint deterministically (map keys sorted).
func Encode(c *Checkpoint) []byte {
	return AppendEncode(nil, c)
}

// AppendEncode serializes the checkpoint deterministically (map keys sorted),
// appending to buf. The stable-storage writer passes a recycled buffer so the
// periodic checkpoint commits — and the write/replace churn inside blocking
// periods — stop allocating once the system reaches steady state.
func AppendEncode(buf []byte, c *Checkpoint) []byte {
	if buf == nil {
		buf = make([]byte, 0, 64+len(c.Unacked)*msg.EncodedSize)
	}
	buf = append(buf, codecVersion, byte(c.Kind), byte(c.Proc))
	buf = appendU64(buf, uint64(c.TakenAt))
	buf = appendU64(buf, c.Ndc)
	var flags byte
	if c.Dirty {
		flags |= flagDirty
	}
	if c.State.Corrupted {
		flags |= flagCorrupted
	}
	buf = append(buf, flags)
	buf = appendU64(buf, c.MsgSN)
	buf = appendU64(buf, c.State.Step)
	buf = appendU64(buf, uint64(c.State.Acc))
	buf = appendU64(buf, c.State.Hash)
	buf = appendCounts(buf, c.SentTo)
	buf = appendCounts(buf, c.RecvFrom)
	buf = appendCounts(buf, c.ValidSN)
	buf = msg.EncodeSlice(buf, c.Unacked)
	return buf
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
	dst = append(dst, byte(len(m)))
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
