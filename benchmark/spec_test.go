package benchmark

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"github.com/synergy-ft/synergy/internal/experiment"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables keeps BENCHMARK.json and spec.go one table: the
// file is `run.sh --print-manifest`, and a drift in either fails here.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(data))
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := manifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with\n  bash benchmark/run.sh --print-manifest > BENCHMARK.json")
	}
}

func TestTablesMeetTheContract(t *testing.T) {
	m := manifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", e.Name, e.Unit, e.Better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == SetupS {
			setup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, p := range m.PerLayer {
		name("per-layer", p.Name)
		if !unitRE.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") || p.Bound != 0 {
			t.Errorf("per-layer %s: unit %q better %q bound %g", p.Name, p.Unit, p.Better, p.Bound)
		}
	}
}

func TestExperimentIDsMatchRegistry(t *testing.T) {
	if got := experiment.IDs(); !reflect.DeepEqual(got, ExperimentIDs) {
		t.Errorf("experiment.IDs() = %v, spec.go lists %v", got, ExperimentIDs)
	}
}

func TestSpreadRowsFlagABoundExceeded(t *testing.T) {
	runs := []map[string]float64{
		{SetupS: 1, OpMs: 10, MsgsPerS: 100, CPUUsPerMsg: 5, MemPeakMB: 8},
		{SetupS: 3, OpMs: 10.5, MsgsPerS: 150, CPUUsPerMsg: 5.1, MemPeakMB: 8},
	}
	exceeds := map[string]bool{}
	for _, row := range SpreadRows("w", runs) {
		exceeds[row.Metric] = row.Exceeds
	}
	want := map[string]bool{SetupS: false, OpMs: false, MsgsPerS: true, CPUUsPerMsg: false, MemPeakMB: false}
	if !reflect.DeepEqual(exceeds, want) {
		t.Errorf("exceeds = %v, want %v (setup_s is exempt, msgs_per_s spread is 40%%)", exceeds, want)
	}
}

func TestNewResultReportsExactlyTheTable(t *testing.T) {
	var c Checks
	c.Count(10, 0, "ops")
	r := NewResult(EndToEnd, map[string]float64{OpMs: 1.5, "stray": 9}, &c)
	if len(r.Metrics) != len(EndToEnd) || r.Metrics[OpMs] != (Value{1.5, "ms"}) || !r.Correct || r.Attempted != 10 {
		t.Errorf("result = %+v", r)
	}
	c.Expect(false, "broke")
	if r := NewResult(EndToEnd, nil, &c); r.Correct || r.Failed != 1 || r.Attempted != 11 {
		t.Errorf("failed result = %+v", r)
	}
}
