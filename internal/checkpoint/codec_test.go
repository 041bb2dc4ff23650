package checkpoint

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
)

// sortedAppendCounts is the counter encoding appendCounts replaced — collect
// the keys, sort them, look each one up again — kept as its model.
func sortedAppendCounts(dst []byte, m map[msg.ProcID]uint64) []byte {
	keys := make([]msg.ProcID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = append(dst, byte(len(keys)))
	for _, k := range keys {
		dst = append(dst, byte(k))
		dst = appendU64(dst, m[k])
	}
	return dst
}

// randomCounts draws a map of 0–255 keys; about one map in four holds both
// ends of the key range, 0 and 255.
func randomCounts(rng *rand.Rand) map[msg.ProcID]uint64 {
	n := rng.Intn(256)
	m := make(map[msg.ProcID]uint64, n)
	if n >= 2 && rng.Intn(4) == 0 {
		m[0], m[255] = rng.Uint64(), rng.Uint64()
	}
	for _, k := range rng.Perm(256) {
		if len(m) == n {
			break
		}
		if _, ok := m[msg.ProcID(k)]; !ok {
			m[msg.ProcID(k)] = rng.Uint64() >> rng.Intn(64)
		}
	}
	return m
}

func TestCountsEncodeLikeSortedModel(t *testing.T) {
	ends := 0
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomCounts(rng)
		if _, lo := m[0]; lo {
			if _, hi := m[255]; hi {
				ends++
			}
		}
		prefix := []byte{byte(seed)}
		got := appendCounts(bytes.Clone(prefix), m)
		want := sortedAppendCounts(bytes.Clone(prefix), m)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d (%d keys): encoding differs from the sorted model\n got %x\nwant %x", seed, len(m), got, want)
		}
		// The same set held densely, zero meaning absent, as long as its
		// highest key needs: it encodes as the map of its non-zero entries.
		dense := make([]uint64, 1+rng.Intn(256))
		nonzero := map[msg.ProcID]uint64{}
		for k, v := range m {
			if int(k) < len(dense) {
				dense[k] = v
				if v != 0 {
					nonzero[k] = v
				}
			}
		}
		got = AppendCounts(bytes.Clone(prefix), dense)
		want = sortedAppendCounts(bytes.Clone(prefix), nonzero)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d (%d of %d slots set): dense encoding differs from the sorted model\n got %x\nwant %x", seed, len(nonzero), len(dense), got, want)
		}
	}
	if ends == 0 {
		t.Fatal("no seed drew a map holding both key 0 and key 255")
	}
}

// TestAppendEncodeAllocatesNothing: a 100-node checkpoint's counters encode
// into a warmed buffer without a key slice, a sort or any other allocation.
func TestAppendEncodeAllocatesNothing(t *testing.T) {
	c := benchCheckpoint()
	for k := 0; k < 100; k++ {
		c.SentTo[msg.ProcID(k)] = uint64(4000 + k)
		c.RecvFrom[msg.ProcID(k+100)] = uint64(3000 + k)
		c.ValidSN[msg.ProcID(k+155)] = uint64(8000 + k)
	}
	buf := AppendEncode(nil, c)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendEncode(buf[:0], c) }); allocs != 0 {
		t.Fatalf("AppendEncode into a warmed buffer: %.1f allocs per run, want 0", allocs)
	}
	var dense [256]uint64
	for k := range c.SentTo {
		dense[k] = c.SentTo[k]
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendCounts(buf[:0], dense[:]) }); allocs != 0 {
		t.Fatalf("AppendCounts into a warmed buffer: %.1f allocs per run, want 0", allocs)
	}
}
