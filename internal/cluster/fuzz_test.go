package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// FuzzPassedAT feeds arbitrary bytes to the passed-AT payload decoder: it must
// never panic, and whatever it accepts must survive encode → decode. The
// decoder accepts duplicate and unsorted component entries (last one wins)
// while the encoder emits each once, sorted — so the fixpoint is on the
// decoded value; the bytes are a fixpoint from the first re-encoding on. The
// committed corpus holds the update payloads of
// TestDatagramCarriesEveryPacketKind's frames.
func FuzzPassedAT(f *testing.F) {
	f.Add(encodePassedAT(7, 3, map[gmdcd.ComponentID]uint64{3: 17, 1: 4, 9: 250}))
	f.Add(encodePassedAT(0, 1, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, from, validated, err := decodePassedAT(data)
		if err != nil {
			return
		}
		enc := encodePassedAT(epoch, from, validated)
		epoch2, from2, validated2, err := decodePassedAT(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if epoch2 != epoch || from2 != from || !reflect.DeepEqual(validated2, validated) {
			t.Fatalf("decode/encode not stable: (%d, %d, %v) → (%d, %d, %v)", epoch, from, validated, epoch2, from2, validated2)
		}
		if enc2 := encodePassedAT(epoch2, from2, validated2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixpoint:\n first: %x\nsecond: %x", enc, enc2)
		}
	})
}

// FuzzResync is the same pair of properties for the resync beacon payload.
func FuzzResync(f *testing.F) {
	f.Add(encodeResync(3))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, err := decodeResync(data)
		if err != nil {
			return
		}
		enc := encodeResync(epoch)
		if epoch2, err := decodeResync(enc); err != nil || epoch2 != epoch {
			t.Fatalf("decode/encode not stable: %d → %d (%v)", epoch, epoch2, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding %x differs from the accepted payload %x", enc, data)
		}
	})
}
