package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// clusterSpecJSON is a minimal valid cluster scenario the grammar tests
// mutate.
const clusterSpecJSON = `{
  "name": "cluster-grammar",
  "seed": 7,
  "duration": "300ms",
  "topology": {"cluster": {"components": 3, "guarded": 2}},
  "expect": {"recovery_line_clean": true}
}`

func parseClusterSpec(t *testing.T, mutate func(*Spec)) error {
	t.Helper()
	spec, err := Parse([]byte(clusterSpecJSON))
	if err != nil {
		t.Fatalf("base cluster spec: %v", err)
	}
	mutate(spec)
	return spec.Validate()
}

func TestClusterSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"one component", func(s *Spec) { s.Topology.Cluster.Components = 1 }, "at least two components"},
		{"guarded overflow", func(s *Spec) { s.Topology.Cluster.Guarded = 4 }, "guarded count"},
		{"non-coordinated scheme", func(s *Spec) { s.Scheme = "naive" }, "coordinated scheme"},
		{"probes", func(s *Spec) { s.Workload.Probes = &Probes{Schedule: "poisson", Rate: 10} }, "no probe path"},
		{"component workload", func(s *Spec) { s.Workload.Component1 = &ComponentLoad{InternalRate: 1} }, "topology.cluster"},
		{"tcp transport", func(s *Spec) { s.Topology.Transport = "tcp" }, "topology.transport"},
		{"crash chaos", func(s *Spec) {
			s.Chaos.Crashes = []CrashSpec{{Victim: "C1", At: Duration(1)}}
		}, "not lowered to clusters"},
		{"software fault unguarded", func(s *Spec) {
			s.Topology.Cluster.Guarded = 0
			s.Modes = []string{ModeSim}
			s.Faults.Software = []Duration{Duration(1)}
		}, "guarded component"},
		{"unknown partition node", func(s *Spec) {
			s.Chaos.Partitions = []PartitionSpec{{From: "C1", To: "C9", End: Duration(1)}}
		}, "unknown cluster node"},
		{"shadow of unguarded", func(s *Spec) {
			s.Chaos.Partitions = []PartitionSpec{{From: "C1", To: "C3s", End: Duration(1)}}
		}, "unknown cluster node"},
		{"active out of range", func(s *Spec) { s.Expect.Active = "C4" }, "unknown cluster node"},
		{"storage fault kind", func(s *Spec) { s.Expect.FaultKinds = []string{"fsync-stall"} }, "not injectable"},
		{"obs expectation", func(s *Spec) { b := true; s.Expect.CheckpointsRecorded = &b }, "obs families"},
	}
	for _, tc := range cases {
		if err := parseClusterSpec(t, tc.mutate); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// A software fault needs no mode restriction: live clusters recover too.
	if err := parseClusterSpec(t, func(s *Spec) { s.Faults.Software = []Duration{Duration(1)} }); err != nil {
		t.Errorf("software fault in both modes: %v", err)
	}
	// gossip_fanin_bounded without a cluster topology is a grammar error.
	spec, err := Parse([]byte(`{"name":"x","seed":1,"duration":"1s","expect":{"gossip_fanin_bounded":true}}`))
	if spec != nil || err == nil || !strings.Contains(err.Error(), "topology.cluster") {
		t.Errorf("gossip_fanin_bounded without cluster: %v", err)
	}
}

// TestClusterProcNames pins the node-name lowering the chaos grammar and
// expectations rely on: "C<i>" is component i's active node, "C<i>s" its
// shadow, assigned in declared order from the base ID.
func TestClusterProcNames(t *testing.T) {
	spec, err := Parse([]byte(clusterSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	asg, err := spec.clusterAssignment()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"C1": 10, "C1s": 11, "C2": 12, "C2s": 13, "C3": 14} {
		id, ok := asg.NodeByName(name)
		if !ok || int(id) != want {
			t.Errorf("NodeByName(%s) = %d, %v; want %d", name, id, ok, want)
		}
	}
	if _, ok := asg.NodeByName("C3s"); ok {
		t.Error("shadow of the unguarded C3 resolved")
	}
}

// TestClusterSimDeterminism requires byte-identical cluster reports from
// repeated simulator runs: the cluster runner inherits the engine's
// determinism contract at every membership size.
func TestClusterSimDeterminism(t *testing.T) {
	spec, err := LoadFile(specsDir + "/140-cluster-10-gossip.json")
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		r, err := RunSim(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := encode()
	second := encode()
	if !bytes.Equal(first, second) {
		t.Errorf("cluster sim reports differ across runs:\n%s\nvs\n%s", first, second)
	}
}
