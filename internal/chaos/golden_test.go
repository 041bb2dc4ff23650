package chaos

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

var goldenLinks = [3]link{{msg.P1Act, msg.P2}, {msg.P2, msg.P1Act}, {msg.P1Sdw, msg.P2}}

// verdictDigests issues the first 1000 verdicts of each golden link, the
// links interleaved frame by frame, and hashes each link's sequence.
func verdictDigests(t *testing.T, spec Spec) (*Injector, [3]string) {
	t.Helper()
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	var sums [3]string
	hs := [3]hash.Hash{sha256.New(), sha256.New(), sha256.New()}
	for k := 0; k < 1000; k++ {
		for i, l := range goldenLinks {
			v := inj.FrameVerdict(l.from, l.to, time.Duration(k)*10*time.Microsecond, 16+k%50)
			fmt.Fprintf(hs[i], "%+v|", v)
		}
	}
	for i, h := range hs {
		sums[i] = fmt.Sprintf("%x", h.Sum(nil)[:8])
	}
	return inj, sums
}

// The per-link draw order is part of every chaos scenario's transcript. The
// expected hashes were captured at 35874ea, before link generators became
// lazy and quiet specs stopped taking the lock; never edit them.
func TestGoldenVerdictSequences(t *testing.T) {
	partition := []Partition{{A: msg.P1Act, B: msg.P2, Bidirectional: true, Start: 2 * time.Millisecond, End: 4 * time.Millisecond}}
	for _, tc := range []struct {
		name   string
		spec   Spec
		want   [3]string
		frames uint64
	}{
		{"every-fault", Spec{Seed: 22, Drop: 0.1, Duplicate: 0.15, Corrupt: 0.1, MaxExtraDelay: time.Millisecond, Partitions: partition},
			[3]string{"364b33d30acf723d", "ec813b19bbe033f1", "3da6a67bb40e3df2"}, 3000},
		{"duplicate-only", Spec{Seed: 23, Duplicate: 0.3},
			[3]string{"4e47b915de7b7fff", "081c104ec9b06a68", "e4073a7c0ecc3665"}, 3000},
		{"jitter-and-partition", Spec{Seed: 24, MaxExtraDelay: 300 * time.Microsecond, Partitions: partition},
			[3]string{"cb8a5c977b3d2457", "f78e89d96d03638e", "8574c41b05ceeb02"}, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, got := verdictDigests(t, tc.spec)
			if got != tc.want {
				t.Errorf("verdict hashes per link = %q, captured at the parent %q", got, tc.want)
			}
			if st := inj.Stats(); st.Frames != tc.frames {
				t.Errorf("Frames = %d, want %d", st.Frames, tc.frames)
			}
			if len(inj.links) != len(goldenLinks) {
				t.Errorf("%d link generators for %d drawing links", len(inj.links), len(goldenLinks))
			}
		})
	}
}

// A spec that never draws creates no generator — a link's 4.9 KB math/rand
// state times N² directed links was most of a 100-node simulation's heap —
// and still counts every frame: Frames is in the scenario reports.
func TestDrawFreeSpecsCreateNoGenerator(t *testing.T) {
	for _, tc := range []struct {
		name        string
		spec        Spec
		partitioned uint64
	}{
		{"quiet", Spec{Seed: 5}, 0},
		{"crash-schedule-only", Spec{Seed: 5, Crashes: []Crash{{Victim: msg.P2, At: time.Second}}}, 0},
		{"partitions-only", Spec{Seed: 5, Partitions: []Partition{{A: msg.P1Act, B: msg.P2, Start: time.Millisecond, End: 3 * time.Millisecond}}}, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := NewInjector(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 1000; k++ {
				for _, l := range goldenLinks {
					v := inj.FrameVerdict(l.from, l.to, time.Duration(k)*10*time.Microsecond, 32)
					blocked := inj.Partitioned(l.from, l.to, time.Duration(k)*10*time.Microsecond)
					if want := (Verdict{Drop: blocked, CorruptByte: -1}); v != want {
						t.Fatalf("frame %d on %v: verdict %+v, want %+v", k, l, v, want)
					}
				}
			}
			if len(inj.links) != 0 {
				t.Errorf("%d link generators created, want none", len(inj.links))
			}
			if st := inj.Stats(); st.Frames != 3000 || st.Partitioned != tc.partitioned {
				t.Errorf("Frames = %d, Partitioned = %d, want 3000 and %d", st.Frames, st.Partitioned, tc.partitioned)
			}
		})
	}
}

// Ten goroutines on one injector: run under -race. Each owns one link, so its
// sequence must equal the one a single-goroutine injector issues.
func TestConcurrentLinksKeepTheirSequences(t *testing.T) {
	for _, spec := range []Spec{{Seed: 9}, {Seed: 9, Drop: 0.2, Duplicate: 0.2, MaxExtraDelay: time.Millisecond}} {
		shared, _ := NewInjector(spec)
		var wg sync.WaitGroup
		got := make([][]Verdict, 10)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 500; k++ {
					got[g] = append(got[g], shared.FrameVerdict(msg.ProcID(g), msg.ProcID(g+1), 0, 64))
				}
			}()
		}
		wg.Wait()
		alone, _ := NewInjector(spec)
		for g := range got {
			for k, v := range got[g] {
				if want := alone.FrameVerdict(msg.ProcID(g), msg.ProcID(g+1), 0, 64); v != want {
					t.Fatalf("link %d frame %d: %+v under contention, %+v alone", g, k, v, want)
				}
			}
		}
		if st := shared.Stats(); st.Frames != 5000 {
			t.Errorf("Frames = %d after 10×500 verdicts", st.Frames)
		}
	}
}
