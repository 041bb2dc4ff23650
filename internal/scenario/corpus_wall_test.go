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
