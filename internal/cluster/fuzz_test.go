package cluster

import (
	"bytes"
	"slices"
	"testing"

	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// fuzzComps is the topology FuzzPassedAT decodes against: every ID below 512,
// so arbitrary bytes name in-topology and foreign components about equally.
var fuzzComps = func() slots {
	ids := make([]gmdcd.ComponentID, 512)
	for i := range ids {
		ids[i] = gmdcd.ComponentID(i)
	}
	return newSlots(ids...)
}()

// FuzzPassedAT feeds arbitrary bytes to the passed-AT payload reader: it must
// never panic — an entry naming a component outside the topology is a read
// error, not an index — and whatever it accepts, merged into an empty vector,
// must survive encode → read. The reader accepts duplicate, unsorted and
// zero-valued entries (duplicates merge by max) while the encoder emits each
// present slot once, sorted — so the fixpoint is on the merged vector; the
// bytes are a fixpoint from the first re-encoding on. The committed corpus holds the update payloads of
// TestDatagramCarriesEveryPacketKind's frames (all four fail the length
// checks), plus the two cases the map decoder got wrong, which cluster_test.go
// pins by value: out-of-topology-component (an error) and
// duplicate-lower-value (C4 → 9, not 3); and the two payloads that took the
// earlier cursor decode off its in-order path: out-of-order-entries (C9, C4,
// C12) and duplicate-behind-cursor (C4 → 3, C9, C4 → 9).
func FuzzPassedAT(f *testing.F) {
	f.Add(encodePassedAT(7, 3, fuzzComps, sparseVec(fuzzComps, map[gmdcd.ComponentID]uint64{3: 17, 1: 4, 9: 250})))
	f.Add(encodePassedAT(0, 1, fuzzComps, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		validated := make([]uint64, len(fuzzComps.ids))
		epoch, from, err := mergePassedAT(data, fuzzComps, validated)
		if err != nil {
			return
		}
		enc := encodePassedAT(epoch, from, fuzzComps, validated)
		validated2 := make([]uint64, len(fuzzComps.ids))
		epoch2, from2, err := mergePassedAT(enc, fuzzComps, validated2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if epoch2 != epoch || from2 != from || !slices.Equal(validated2, validated) {
			t.Fatalf("decode/encode not stable: (%d, %d, %v) → (%d, %d, %v)", epoch, from, validated, epoch2, from2, validated2)
		}
		if enc2 := encodePassedAT(epoch2, from2, fuzzComps, validated2); !bytes.Equal(enc, enc2) {
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
