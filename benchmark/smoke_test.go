package benchmark

import (
	"math"
	"testing"
)

// TestSmokeEveryWorkloadEmitsEveryMetric runs every workload for well under
// a second at reduced size, traced, and asserts the contract of the result
// line: every metric BENCHMARK.json names is there, finite and non-negative
// (the tracing overhead is a difference and may be either sign), every
// end-to-end metric is above zero, and no correctness check failed. The full
// run is `bash benchmark/run.sh`; it is not a test.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the live stack")
	}
	tmp := t.TempDir()
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			o := options{seed: 7, seconds: 0.6, trace: true, small: true, tmp: tmp, out: tmp}
			m, err := measure(w.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			if !m.result.Correct || m.result.Failed != 0 || m.result.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", m.result.Correct, m.result.Attempted, m.result.Failed, m.report)
			}
			if len(m.result.Metrics) != len(PerLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(m.result.Metrics), len(PerLayer))
			}
			for _, p := range PerLayer {
				v, ok := m.result.Metrics[p.Name]
				if !ok || v.Unit != p.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (v.Value < 0 && p.Name != TraceOverheadPct) {
					t.Errorf("per-layer %s = %+v (present %v)", p.Name, v, ok)
				}
			}
			for _, e := range EndToEnd {
				if v := m.e2e[e.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %g, want a finite value above zero\n%s", e.Name, v, m.report)
				}
			}
		})
	}
}
