package scenario

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"missing name", `{"duration":"1s","expect":{"no_failure":true}}`, "missing name"},
		{"zero duration", `{"name":"x","expect":{"no_failure":true}}`, "non-positive duration"},
		{"negative duration", `{"name":"x","duration":"-5s","expect":{"no_failure":true}}`, "non-positive duration"},
		{"bare-number duration", `{"name":"x","duration":100,"expect":{"no_failure":true}}`, "duration must be a string"},
		{"unknown scheme", `{"name":"x","duration":"1s","scheme":"quantum","expect":{"no_failure":true}}`, "unknown scheme"},
		{"unknown mode", `{"name":"x","duration":"1s","modes":["dream"],"expect":{"no_failure":true}}`, "unknown mode"},
		{"unknown transport", `{"name":"x","duration":"1s","topology":{"transport":"udp"},"expect":{"no_failure":true}}`, "unknown transport"},
		{"unknown field", `{"name":"x","duration":"1s","expct":{"no_failure":true}}`, "unknown field"},
		{"trailing data", `{"name":"x","duration":"1s","expect":{"no_failure":true}} extra`, "trailing data"},
		{"zero expectations", `{"name":"x","duration":"1s","expect":{}}`, "no expectations"},
		{"negative chaos rate", `{"name":"x","duration":"1s","chaos":{"drop":-0.1},"expect":{"no_failure":true}}`, "drop probability"},
		{"chaos rate above one", `{"name":"x","duration":"1s","chaos":{"duplicate":1.5},"expect":{"no_failure":true}}`, "x"},
		{"unknown partition proc", `{"name":"x","duration":"1s","chaos":{"partitions":[{"from":"P9","to":"P2","start":"1ms","end":"2ms"}]},"expect":{"no_failure":true}}`, "unknown process"},
		{"crash at end", `{"name":"x","duration":"1s","chaos":{"crashes":[{"victim":"P2","at":"1s"}]},"expect":{"no_failure":true}}`, "at/after"},
		{"repair past end", `{"name":"x","duration":"1s","chaos":{"crashes":[{"victim":"P2","at":"800ms","downtime":"300ms"}]},"expect":{"no_failure":true}}`, "at/after"},
		{"software fault at end", `{"name":"x","duration":"1s","faults":{"software":["1s"]},"expect":{"no_failure":true}}`, "at/after"},
		{"coverage above one", `{"name":"x","duration":"1s","faults":{"at_coverage":1.5},"expect":{"no_failure":true}}`, "[0,1]"},
		{"unknown fault kind", `{"name":"x","duration":"1s","expect":{"fault_kinds":["gamma-ray"]}}`, "unknown fault kind"},
		{"unknown probe schedule", `{"name":"x","duration":"1s","workload":{"probes":{"schedule":"tidal","rate":10}},"expect":{"no_failure":true}}`, "probe schedule"},
		{"probe expect without probes", `{"name":"x","duration":"1s","expect":{"min_probe_rate":10}}`, "workload.probes"},
		{"bad expect active", `{"name":"x","duration":"1s","expect":{"active":"P3"}}`, "unknown process"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) && tc.want != "x" {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseEncodeFixpoint(t *testing.T) {
	in := []byte(`{
  "name": "full",
  "description": "everything at once",
  "seed": 42,
  "scheme": "coordinated",
  "duration": "1500ms",
  "modes": ["sim", "live"],
  "topology": {
    "transport": "tcp",
    "durable": true,
    "checkpoint_interval": "80ms",
    "clock_max_deviation": "3ms",
    "min_delay": "100us",
    "max_delay": "1ms"
  },
  "workload": {
    "component1": {"internal_rate": 60, "external_rate": 6},
    "probes": {"schedule": "diurnal", "rate": 100, "period": "500ms"}
  },
  "chaos": {
    "drop": 0.1,
    "max_extra_delay": "1ms",
    "partitions": [{"from": "P1act", "to": "P2", "bidirectional": true, "start": "100ms", "end": "200ms"}],
    "crashes": [{"victim": "P2", "at": "300ms", "downtime": "200ms"}],
    "fsync_stalls": [{"victim": "P2", "start": "600ms", "end": "900ms", "stall": "10ms"}]
  },
  "faults": {"software": ["400ms"], "at_coverage": 0.95},
  "expect": {
    "no_failure": true,
    "recovery_line_clean": true,
    "min_stable_rounds": 3,
    "sw_recoveries": 1,
    "hw_faults": 1,
    "active": "P1sdw",
    "fault_kinds": ["drop", "partition"],
    "fault_counters_match": true,
    "max_blocking": "50ms",
    "min_probe_rate": 20,
    "all_probes_delivered": true
  }
}`)
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(enc)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, enc)
	}
	enc2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("Encode not a fixpoint:\n%s\nvs\n%s", enc, enc2)
	}
	if s2.Expect.Count() != 11 {
		t.Fatalf("Expect.Count() = %d after round trip, want 11", s2.Expect.Count())
	}
}

func TestDefaultsAndLowering(t *testing.T) {
	s, err := Parse([]byte(`{"name":"d","seed":5,"duration":"1s","expect":{"no_failure":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Topology.Interval(); got != defaultCheckpointInterval {
		t.Fatalf("Interval = %v, want default %v", got, defaultCheckpointInterval)
	}
	tmin, tmax := s.Topology.Delays()
	if tmin != defaultMinDelay || tmax != defaultMaxDelay {
		t.Fatalf("Delays = %v/%v, want defaults", tmin, tmax)
	}
	if modes := s.RunModes(); len(modes) != 2 || modes[0] != ModeSim || modes[1] != ModeLive {
		t.Fatalf("RunModes = %v, want both", modes)
	}
	if s.SchemeName() != "coordinated" {
		t.Fatalf("SchemeName = %q, want coordinated default", s.SchemeName())
	}
	w := s.Workload.Load(s.Workload.Component1)
	if w.InternalRate != defaultComponentLoad.InternalRate {
		t.Fatalf("default workload internal rate = %v", w.InternalRate)
	}
	sp, err := s.ChaosSpec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 5 {
		t.Fatalf("chaos seed %d, want the spec seed", sp.Seed)
	}
	if s.NeedsDurable() || s.NeedsTCP() {
		t.Fatal("plain spec must not require durability or TCP")
	}
}

func TestZeroDelayTopology(t *testing.T) {
	s, err := Parse([]byte(`{"name":"z","duration":"1s","topology":{"zero_delay":true},"expect":{"no_failure":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if tmin, tmax := s.Topology.Delays(); tmin != 0 || tmax != 0 {
		t.Fatalf("zero_delay Delays = %v/%v, want 0/0", tmin, tmax)
	}
}

func TestNeedsDurableAndTCP(t *testing.T) {
	crash, err := Parse([]byte(`{"name":"c","duration":"1s","chaos":{"crashes":[{"victim":"P2","at":"200ms","downtime":"100ms"}]},"expect":{"hw_faults":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !crash.NeedsDurable() {
		t.Fatal("crash schedule must imply durable storage")
	}
	if crash.NeedsTCP() {
		t.Fatal("crash-only spec must not require TCP")
	}
	drop, err := Parse([]byte(`{"name":"f","duration":"1s","chaos":{"drop":0.1},"expect":{"no_failure":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !drop.NeedsTCP() {
		t.Fatal("frame faults must imply the TCP transport")
	}
}

func TestGapsSchedules(t *testing.T) {
	for _, sched := range Schedules {
		p := Probes{Schedule: sched, Rate: 100}
		rng := newTestRand()
		gap := p.Gaps(time.Second, rng)
		var total time.Duration
		for elapsed := time.Duration(0); elapsed < time.Second; {
			g := gap(elapsed)
			if g < 0 {
				t.Fatalf("%s: negative gap %v", sched, g)
			}
			if g == 0 {
				g = time.Nanosecond
			}
			elapsed += g
			total += g
		}
		if total <= 0 {
			t.Fatalf("%s: generator never advanced", sched)
		}
	}
	// Burst alternates between the base and high rates by half-period.
	p := Probes{Schedule: "burst", Rate: 100, Rate2: 400, Period: Duration(200 * time.Millisecond)}
	gap := p.Gaps(time.Second, newTestRand())
	if lo, hi := gap(0), gap(150*time.Millisecond); lo != 4*hi {
		t.Fatalf("burst gaps: base %v, high %v — want base = 4x high", lo, hi)
	}
}
