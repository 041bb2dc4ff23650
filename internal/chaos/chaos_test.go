package chaos

import (
	"math"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{name: "zero", spec: Spec{}},
		{name: "full", spec: Spec{
			Seed: 1, Drop: 0.1, Duplicate: 0.1, Corrupt: 0.05, MaxExtraDelay: time.Millisecond,
			Partitions: []Partition{{A: msg.P1Act, B: msg.P2, Start: time.Millisecond, End: 2 * time.Millisecond}},
			Crashes:    []Crash{{Victim: msg.P2, At: time.Millisecond, Downtime: time.Millisecond}},
		}},
		{name: "bad prob", spec: Spec{Drop: 1.5}, wantErr: true},
		{name: "negative jitter", spec: Spec{MaxExtraDelay: -1}, wantErr: true},
		{name: "empty partition window", spec: Spec{
			Partitions: []Partition{{A: msg.P1Act, B: msg.P2, Start: 5, End: 5}}}, wantErr: true},
		{name: "self partition", spec: Spec{
			Partitions: []Partition{{A: msg.P2, B: msg.P2, Start: 0, End: 5}}}, wantErr: true},
		{name: "overlapping crashes", spec: Spec{
			Crashes: []Crash{
				{Victim: msg.P2, At: time.Millisecond, Downtime: 10 * time.Millisecond},
				{Victim: msg.P2, At: 5 * time.Millisecond, Downtime: time.Millisecond},
			}}, wantErr: true},
		{name: "sequential crashes ok", spec: Spec{
			Crashes: []Crash{
				{Victim: msg.P2, At: time.Millisecond, Downtime: time.Millisecond},
				{Victim: msg.P2, At: 5 * time.Millisecond, Downtime: time.Millisecond},
			}}},
		// A crash with no downtime keeps its victim down for the rest of
		// the run, so no later crash of the same victim can follow it.
		{name: "crash after a permanent crash", spec: Spec{
			Crashes: []Crash{
				{Victim: msg.P2, At: time.Millisecond},
				{Victim: msg.P2, At: 5 * time.Millisecond, Downtime: time.Millisecond},
			}}, wantErr: true},
		{name: "permanent crash after a crash", spec: Spec{
			Crashes: []Crash{
				{Victim: msg.P2, At: 5 * time.Millisecond, Downtime: time.Millisecond},
				{Victim: msg.P2, At: time.Millisecond},
			}}, wantErr: true},
		{name: "permanent crash after a repaired one ok", spec: Spec{
			Crashes: []Crash{
				{Victim: msg.P2, At: time.Millisecond, Downtime: time.Millisecond},
				{Victim: msg.P2, At: 5 * time.Millisecond},
			}}},
		{name: "NaN drop", spec: Spec{Drop: math.NaN()}, wantErr: true},
		{name: "NaN duplicate", spec: Spec{Duplicate: math.NaN()}, wantErr: true},
		{name: "NaN corrupt", spec: Spec{Corrupt: math.NaN()}, wantErr: true},
		{name: "NaN disk write error", spec: Spec{
			DiskFaults: []DiskFault{{Victim: msg.P2, Start: 0, End: time.Second, SyncErr: 0.1, WriteErr: math.NaN()}}}, wantErr: true},
		{name: "NaN disk read corruption", spec: Spec{
			DiskFaults: []DiskFault{{Victim: msg.P2, Start: 0, End: time.Second, SyncErr: 0.1, ReadCorrupt: math.NaN()}}}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestVerdictSequenceIsDeterministicPerLink(t *testing.T) {
	spec := Spec{Seed: 42, Drop: 0.2, Duplicate: 0.2, Corrupt: 0.2, MaxExtraDelay: time.Millisecond}
	run := func(interleaved bool) []Verdict {
		inj, err := NewInjector(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []Verdict
		for k := 0; k < 200; k++ {
			if interleaved {
				// Other links' draws must not perturb this link.
				inj.FrameVerdict(msg.P2, msg.P1Act, 0, 32)
				inj.FrameVerdict(msg.P2, msg.P1Sdw, 0, 32)
			}
			out = append(out, inj.FrameVerdict(msg.P1Act, msg.P2, 0, 32))
		}
		return out
	}
	a, b := run(false), run(true)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("frame %d verdict differs across interleavings: %+v vs %+v", k, a[k], b[k])
		}
	}
}

func TestPartitionWindowsAndHeal(t *testing.T) {
	spec := Spec{
		Seed: 7,
		Partitions: []Partition{
			{A: msg.P1Act, B: msg.P2, Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
			{A: msg.P1Sdw, B: msg.P2, Bidirectional: true, Start: 0, End: 5 * time.Millisecond},
		},
	}
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		from, to msg.ProcID
		at       time.Duration
		blocked  bool
	}{
		{msg.P1Act, msg.P2, 15 * time.Millisecond, true},
		{msg.P2, msg.P1Act, 15 * time.Millisecond, false}, // directed only
		{msg.P1Act, msg.P2, 25 * time.Millisecond, false}, // healed
		{msg.P1Act, msg.P2, 9 * time.Millisecond, false},  // not yet
		{msg.P1Sdw, msg.P2, 3 * time.Millisecond, true},
		{msg.P2, msg.P1Sdw, 3 * time.Millisecond, true}, // bidirectional
		{msg.P2, msg.P1Sdw, 5 * time.Millisecond, false},
	}
	for _, tc := range cases {
		if got := inj.Partitioned(tc.from, tc.to, tc.at); got != tc.blocked {
			t.Errorf("Partitioned(%v→%v @%v) = %v, want %v", tc.from, tc.to, tc.at, got, tc.blocked)
		}
		v := inj.FrameVerdict(tc.from, tc.to, tc.at, 32)
		if v.Drop != tc.blocked {
			t.Errorf("FrameVerdict(%v→%v @%v).Drop = %v, want %v", tc.from, tc.to, tc.at, v.Drop, tc.blocked)
		}
	}
	if s := inj.Stats(); s.Partitioned != 3 {
		t.Fatalf("partitioned frames = %d, want 3", s.Partitioned)
	}
}

func TestPartitionDrawsDoNotShiftSequence(t *testing.T) {
	// Partitioned frames consume no randomness, so a link that spends
	// frames 50–99 inside a partition resumes after heal exactly where the
	// draw sequence left off: its frame 100+k matches the unpartitioned
	// run's frame 50+k.
	base := Spec{Seed: 9, Drop: 0.3}
	part := base
	part.Partitions = []Partition{{A: msg.P1Act, B: msg.P2, Start: 1, End: 2}}
	run := func(spec Spec) []Verdict {
		inj, err := NewInjector(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []Verdict
		for k := 0; k < 150; k++ {
			at := time.Duration(0)
			if k >= 50 && k < 100 {
				at = 1 // inside the window for the partitioned run
			}
			out = append(out, inj.FrameVerdict(msg.P1Act, msg.P2, at, 32))
		}
		return out
	}
	a, b := run(base), run(part)
	for k := 0; k < 50; k++ {
		if b[100+k].Drop != a[50+k].Drop {
			t.Fatalf("post-heal frame %d diverged from draw sequence", 100+k)
		}
	}
}

func TestFrameVerdictRates(t *testing.T) {
	spec := Spec{Seed: 3, Drop: 0.25, Duplicate: 0.25, Corrupt: 0.25, MaxExtraDelay: time.Millisecond}
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for k := 0; k < n; k++ {
		v := inj.FrameVerdict(msg.P1Act, msg.P2, 0, 32)
		if v.CorruptByte >= 32 || (v.CorruptByte >= 0 && v.CorruptMask == 0) {
			t.Fatalf("bad corruption verdict %+v", v)
		}
	}
	s := inj.Stats()
	if s.Frames != n {
		t.Fatalf("frames = %d", s.Frames)
	}
	check := func(name string, got uint64) {
		t.Helper()
		// 0.25 rate over 4000 draws: accept a generous ±40% band.
		if got < n/4*6/10 || got > n/4*14/10 {
			t.Errorf("%s = %d, far from expectation %d", name, got, n/4)
		}
	}
	check("dropped", s.Dropped)
	// Duplicate/corrupt only run on undropped frames (~3000 draws).
	if s.Duplicated == 0 || s.Corrupted == 0 || s.Delayed == 0 {
		t.Fatalf("stats %+v: some fault kind never fired", s)
	}
}

func TestActive(t *testing.T) {
	if (Spec{}).Active() {
		t.Fatal("zero spec reported active")
	}
	if !(Spec{Drop: 0.01}).Active() || !(Spec{Crashes: []Crash{{Victim: msg.P2}}}).Active() {
		t.Fatal("non-zero spec reported inactive")
	}
}
