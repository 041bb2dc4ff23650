package coord

import (
	"bytes"
	"os"
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
)

// registryGolden is the Prometheus rendering of TestRegistryAcrossReboot's
// run. It was captured before the per-process families moved from counters
// the layers incremented beside their own counts to reads of those counts;
// it pins their names, help strings, labels and values, across a reboot
// too. Never edit it.
const registryGolden = "testdata/registry_reboot.prom"

// TestRegistryAcrossReboot runs the reboot workload with a registry: P2
// crashes at 2 s, its host reboots 0.3 s later with nothing in memory, and
// the run ends at 3.3 s. Every family the coordinated scheme registers must
// read as the golden says.
func TestRegistryAcrossReboot(t *testing.T) {
	cfg := rebootConfig(3)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s := newSystem(t, cfg)
	s.Start()
	s.RunFor(2)
	p2 := msg.NodeID(msg.P2)
	s.CrashNode(p2)
	s.RunFor(0.3)
	if err := s.RebootNode(p2); err != nil {
		t.Fatal(err)
	}
	s.RunFor(1)
	mustHealthy(t, s)
	var got bytes.Buffer
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(registryGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("registry differs from %s:\n--- got ---\n%s\n--- want ---\n%s", registryGolden, got.Bytes(), want)
	}
}
