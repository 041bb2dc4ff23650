package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specsDir is the committed corpus, relative to this package.
const specsDir = "../../specs"

// TestCorpusWall is the corpus's gatekeeper: every committed spec must parse,
// validate (which includes asserting at least one expectation), carry a
// unique name, and keep the numbered-filename convention that fixes corpus
// order. A broken or vacuous spec fails the suite before any scenario runs.
func TestCorpusWall(t *testing.T) {
	entries, err := os.ReadDir(specsDir)
	if err != nil {
		t.Fatalf("corpus directory: %v", err)
	}
	names := make(map[string]string)
	count := 0
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected directory %s in the corpus", e.Name())
		}
		if filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("non-spec file %s in the corpus (only *.json belongs in specs/)", e.Name())
		}
		count++
		path := filepath.Join(specsDir, e.Name())
		spec, err := LoadFile(path)
		if err != nil {
			t.Errorf("spec wall: %v", err)
			continue
		}
		if n := spec.Expect.Count(); n < 1 {
			t.Errorf("%s: %d expectations — a committed scenario must assert at least one invariant", e.Name(), n)
		}
		if prev, dup := names[spec.Name]; dup {
			t.Errorf("%s: name %q already used by %s", e.Name(), spec.Name, prev)
		}
		names[spec.Name] = e.Name()
		// NNN-name.json keeps ls order, corpus order and campaign seeding
		// aligned.
		base := strings.TrimSuffix(e.Name(), ".json")
		if len(base) < 5 || base[3] != '-' || !allDigits(base[:3]) {
			t.Errorf("%s: corpus filenames are NNN-name.json", e.Name())
		}
		if want := base[4:]; spec.Name != want {
			t.Errorf("%s: spec name %q does not match filename (want %q)", e.Name(), spec.Name, want)
		}
	}
	if count < 10 {
		t.Fatalf("corpus has %d specs, want at least 10", count)
	}
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// TestCorpusLoadDir pins LoadDir's ordering and error contracts.
func TestCorpusLoadDir(t *testing.T) {
	specs, err := LoadDir(specsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 10 {
		t.Fatalf("LoadDir returned %d specs, want >= 10", len(specs))
	}
	if specs[0].Name != "baseline-steady" {
		t.Fatalf("first spec is %q, want baseline-steady (sorted filename order)", specs[0].Name)
	}

	dir := t.TempDir()
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted an empty directory")
	}
	bad := filepath.Join(dir, "000-broken.json")
	if err := os.WriteFile(bad, []byte(`{"name":"broken","duration":"1s","expect":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "no expectations") {
		t.Fatalf("LoadDir on a zero-expectation spec: %v, want the validation error", err)
	}
}

// TestJobsExpansion pins the (spec, mode) grid the corpus runner executes.
func TestJobsExpansion(t *testing.T) {
	specs, err := LoadDir(specsDir)
	if err != nil {
		t.Fatal(err)
	}
	all := Jobs(specs, "")
	sim := Jobs(specs, ModeSim)
	live := Jobs(specs, ModeLive)
	if len(all) != len(sim)+len(live) {
		t.Fatalf("job grid %d != sim %d + live %d", len(all), len(sim), len(live))
	}
	for _, j := range sim {
		if !j.Spec.HasMode(ModeSim) {
			t.Fatalf("spec %s selected for sim without the mode", j.Spec.Name)
		}
	}
	// Every committed spec must execute in the simulator. Dual execution is
	// the default — a spec escapes live mode only by declaring its modes
	// explicitly (the three 50/100-node cluster scenarios are
	// simulator-scale), and the dual-mode corpus must stay the overwhelming
	// majority.
	if len(sim) != len(specs) {
		t.Fatalf("corpus runs %d sim jobs for %d specs, want every spec in the simulator",
			len(sim), len(specs))
	}
	wantLive := 0
	for _, s := range specs {
		if s.HasMode(ModeLive) {
			wantLive++
		}
	}
	if len(live) != wantLive {
		t.Fatalf("corpus runs %d live jobs, want %d (the specs declaring live mode)", len(live), wantLive)
	}
	if wantLive < len(specs)-3 {
		t.Fatalf("only %d of %d specs run live; dual execution is the engine's reason to exist", wantLive, len(specs))
	}
}

// TestCorpusKeepsGateExpectations pins the expectations scripts/check.sh
// leans on. The gate has no chaos-soak, load or cluster stage of its own: the
// scenario matrix and this package's corpus tests run specs 030, 120 and 140,
// and that covers what those stages asserted only while the specs themselves
// assert it.
func TestCorpusKeepsGateExpectations(t *testing.T) {
	isTrue := func(b *bool) bool { return b != nil && *b }
	for _, c := range []struct {
		file, expectation string
		asserted          func(Expect) bool
	}{
		{"030-chaos-soak.json", "fault_counters_match", func(e Expect) bool { return isTrue(e.FaultCountersMatch) }},
		{"120-poisson-load.json", "min_probe_rate", func(e Expect) bool { return e.MinProbeRate > 0 }},
		{"120-poisson-load.json", "all_probes_delivered", func(e Expect) bool { return isTrue(e.AllProbesDelivered) }},
		{"140-cluster-10-gossip.json", "gossip_fanin_bounded", func(e Expect) bool { return isTrue(e.GossipFaninBounded) }},
	} {
		spec, err := LoadFile(filepath.Join(specsDir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !c.asserted(spec.Expect) {
			t.Errorf("%s no longer asserts %s: restore it, or give check.sh a stage that does", c.file, c.expectation)
		}
		for _, mode := range []string{ModeSim, ModeLive} {
			if !spec.HasMode(mode) {
				t.Errorf("%s no longer runs in %s mode", c.file, mode)
			}
		}
	}
}

// TestFailedJobCarriesEvidence runs scenarios with an expectation no run can
// meet through RunCorpus: every failed job must come back with the run's
// metrics snapshot, and a three-process live job with its protocol trace —
// what synergy-scenario -artifacts writes next to the report.
func TestFailedJobCarriesEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs cost wall-clock seconds")
	}
	const unmeetable = `"expect": {"min_stable_rounds": 1000000}`
	var specs []*Spec
	for _, src := range []string{
		`{"name": "unmeetable", "duration": "300ms", ` + unmeetable + `}`,
		`{"name": "unmeetable-cluster", "modes": ["sim"], "duration": "300ms",
		  "topology": {"cluster": {"components": 3, "guarded": 2}}, ` + unmeetable + `}`,
	} {
		spec, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	results := RunCorpus(Jobs(specs, ""), 1)
	if len(results) != 3 {
		t.Fatalf("ran %d jobs, want unmeetable in sim and live plus the cluster in sim", len(results))
	}
	for _, r := range results {
		id := r.Job.Spec.Name + " [" + r.Job.Mode + "]"
		if r.Err != nil {
			t.Fatalf("%s: %v", id, r.Err)
		}
		if r.Report.Passed {
			t.Fatalf("%s passed an unmeetable expectation", id)
		}
		if len(r.Metrics.Families) == 0 {
			t.Errorf("%s: failed job carries no metrics snapshot", id)
		}
		if live3 := r.Job.Mode == ModeLive; live3 != (len(r.Trace) > 0) {
			t.Errorf("%s: %d trace bytes (only the three-process live run records a trace)", id, len(r.Trace))
		}
	}
}
