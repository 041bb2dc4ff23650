package scenario

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// simReports runs every corpus spec in the simulator across the given worker
// count and returns the canonical JSON encoding of each report, in corpus
// order.
func simReports(t *testing.T, specs []*Spec, workers int) [][]byte {
	t.Helper()
	jobs := Jobs(specs, ModeSim)
	results := RunCorpus(jobs, workers)
	out := make([][]byte, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s [sim]: %v", jobs[i].Spec.Name, r.Err)
		}
		data, err := r.Report.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// TestSimDeterminismAcrossWorkers is the determinism property the simulator
// runner guarantees: the same spec produces a byte-identical report whether
// the corpus runs on one worker or eight, and across repeated runs at the
// same seed. Virtual time, per-link seeded chaos and fixed iteration orders
// leave nothing for the scheduler to perturb.
func TestSimDeterminismAcrossWorkers(t *testing.T) {
	specs, err := LoadDir(specsDir)
	if err != nil {
		t.Fatal(err)
	}
	serial := simReports(t, specs, 1)
	wide := simReports(t, specs, 8)
	again := simReports(t, specs, 8)
	for i := range serial {
		if !bytes.Equal(serial[i], wide[i]) {
			t.Errorf("%s: report differs between -workers 1 and -workers 8:\n%s\nvs\n%s",
				specs[i].Name, serial[i], wide[i])
		}
		if !bytes.Equal(wide[i], again[i]) {
			t.Errorf("%s: report differs between two -workers 8 runs at the same seed", specs[i].Name)
		}
	}
}

// verdictSignature reduces a report to what must be stable across live runs:
// which checks ran and how each was judged. Live stats (frame counts, wall
// time, probe totals) legitimately vary run to run; the verdicts must not.
func verdictSignature(r *Report) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s/%s passed=%v", r.Name, r.Mode, r.Passed)
	for _, c := range r.Checks {
		fmt.Fprintf(&b, " %s=%s", c.Name, c.Status)
	}
	return b.String()
}

// TestLiveVerdictDeterminism runs corpus specs twice against the live stack
// and requires identical invariant verdicts: wall-clock jitter may move the
// numbers, but never a pass/fail. By default only a short corpus prefix runs
// (live runs cost real seconds); CI sets SCENARIO_FULL=1 for the whole
// corpus.
func TestLiveVerdictDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs cost wall-clock seconds")
	}
	specs, err := LoadDir(specsDir)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("SCENARIO_FULL") == "" && len(specs) > 3 {
		specs = specs[:3]
	}
	jobs := Jobs(specs, ModeLive)
	run := func() []string {
		results := RunCorpus(jobs, 1)
		sigs := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s [live]: %v", jobs[i].Spec.Name, r.Err)
			}
			sigs[i] = verdictSignature(r.Report)
		}
		return sigs
	}
	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("live verdicts differ between runs at the same seed:\n%s\nvs\n%s", first[i], second[i])
		}
	}
}

// TestRunSimReportsPass requires the whole committed corpus to be green in
// the simulator: a spec whose expectations fail does not belong in specs/.
func TestRunSimReportsPass(t *testing.T) {
	specs, err := LoadDir(specsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		r, err := RunSim(spec)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if !r.Passed {
			t.Errorf("%s [sim]: %s", spec.Name, r.Summary())
			for _, c := range r.Failures() {
				t.Errorf("  %s: %s", c.Name, c.Detail)
			}
		}
	}
}

// TestRunSimRejectsCrashVictimOutsideScheme: tb-only runs two plain processes
// and no shadow, so a spec that schedules a P1sdw crash names a host the
// scheme does not have — an error, not a crash that silently never happens.
func TestRunSimRejectsCrashVictimOutsideScheme(t *testing.T) {
	spec, err := Parse([]byte(`{"name":"no-shadow","scheme":"tb-only","modes":["sim"],"duration":"1s",
		"chaos":{"crashes":[{"victim":"P1sdw","at":"300ms","downtime":"200ms"}]},"expect":{"no_failure":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSim(spec)
	if want := "scenario no-shadow: crash victim P1sdw not in this scheme"; err == nil || err.Error() != want {
		t.Fatalf("RunSim error = %v, want %q", err, want)
	}
}
