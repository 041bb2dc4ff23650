package benchmark

import (
	"math"
	"testing"

	"github.com/synergy-ft/synergy/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {39, 100}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1 << 20, 99},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	s := Summarize(xs)
	if s.N != 1000 || s.TailPct != 99 || !near(s.P50, 500.5) || !near(s.Tail, 990.01) {
		t.Fatalf("Summarize = %+v", s)
	}
	if xs[0] != 1000 {
		t.Fatal("Summarize reordered its input")
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v", got)
	}
}

func TestSlicePercentileIsTheMedianSlices(t *testing.T) {
	slice := func(base float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = base + float64(i) // base..base+99
		}
		return xs
	}
	// Three healthy slices, one disturbed one, and a stub too short to count.
	slices := [][]float64{slice(0), slice(1), slice(1000), slice(2), {5000, 6000}}
	if got := SlicePercentile(slices, 90); !near(got, 90.6) {
		t.Errorf("p90 = %g, want 90.6: the median of 89.1, 90.1, 1089.1 and 91.1", got)
	}
	// Only stubs: the percentile of everything together.
	if got := SlicePercentile([][]float64{{1, 2}, {3}}, 50); !near(got, 2) {
		t.Errorf("p50 of stubs = %g, want 2", got)
	}
	if got := SlicePercentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75].
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("Quartiles(1..10) = %g, %g", q1, q3)
	}
	q1, q3 = Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if !near(q1, 1.25) || !near(q3, 5.75) {
		t.Errorf("Quartiles(pi digits) = %g, %g", q1, q3)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread(1..10) = %g, want 1", got)
	}
}

// histSnapshot builds a snapshot with one histogram family of two series over
// the bounds 1, 2, 4, +Inf.
func histSnapshot(perBucketA, perBucketB [4]uint64) obs.Snapshot {
	series := func(labels string, per [4]uint64) obs.SeriesSnapshot {
		bounds := []float64{1, 2, 4, math.Inf(1)}
		s := obs.SeriesSnapshot{Labels: labels}
		for i, n := range per {
			s.Count += n
			s.Sum += float64(n) * 0.75 * math.Min(bounds[i], 8)
			s.Buckets = append(s.Buckets, obs.BucketSnapshot{UpperBound: bounds[i], Count: s.Count})
		}
		return s
	}
	return obs.Snapshot{Families: []obs.FamilySnapshot{
		{Name: "other_seconds", Kind: "histogram", Series: []obs.SeriesSnapshot{series("", [4]uint64{9, 9, 9, 9})}},
		{Name: "lat_seconds", Kind: "histogram", Series: []obs.SeriesSnapshot{
			series(`proc="P1act"`, perBucketA), series(`proc="P2"`, perBucketB),
		}},
		{Name: "hits_total", Kind: "counter", Series: []obs.SeriesSnapshot{
			{Labels: `proc="P1act"`, Value: 3}, {Labels: `proc="P2"`, Value: 4},
		}},
	}}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	// Merged counts per bucket: (0,1]:10  (1,2]:20  (2,4]:10  +Inf:0.
	h := HistOf(histSnapshot([4]uint64{10, 5, 0, 0}, [4]uint64{0, 15, 10, 0}), "lat_seconds", "")
	if h.Count != 40 {
		t.Fatalf("merged count = %d, want 40", h.Count)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1},    // exactly the first bucket's edge
		{0.50, 1.5},  // 20th of 40: half-way through (1,2]
		{0.75, 2},    // 30th: the edge of (1,2]
		{0.875, 3},   // 35th: half-way through (2,4]
		{0.125, 0.5}, // 5th: half-way through (0,1]
		{1.0, 4},     // the last finite bound
	} {
		if got := h.Quantile(c.q); !near(got, c.want) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := HistOf(histSnapshot([4]uint64{10, 5, 0, 0}, [4]uint64{0, 15, 10, 0}), "lat_seconds", `proc="P2"`).Count; got != 25 {
		t.Errorf("label-filtered count = %d, want 25", got)
	}
}

func TestHistQuantileOverflowBucketReadsLastFiniteBound(t *testing.T) {
	h := HistOf(histSnapshot([4]uint64{1, 0, 0, 9}, [4]uint64{}), "lat_seconds", "")
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("Quantile in +Inf bucket = %g, want 4", got)
	}
	if got := (Hist{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
}

func TestHistSubIsTheWindowBetweenTwoSnapshots(t *testing.T) {
	before := HistOf(histSnapshot([4]uint64{10, 0, 0, 0}, [4]uint64{}), "lat_seconds", "")
	after := HistOf(histSnapshot([4]uint64{10, 20, 10, 0}, [4]uint64{}), "lat_seconds", "")
	w := after.Sub(before)
	if w.Count != 30 || !near(w.Quantile(0.5), 1.75) {
		t.Errorf("window = %+v, p50 = %g; want 30 samples, p50 1.75", w, w.Quantile(0.5))
	}
	if got := after.Sub(Hist{}); got.Count != after.Count {
		t.Errorf("Sub(empty) changed the count: %d", got.Count)
	}
	if m := w.Mean(); m <= 0 {
		t.Errorf("window mean = %g", m)
	}
}

func TestCounterOf(t *testing.T) {
	snap := histSnapshot([4]uint64{}, [4]uint64{})
	if got := CounterOf(snap, "hits_total", ""); got != 7 {
		t.Errorf("CounterOf all = %g, want 7", got)
	}
	if got := CounterOf(snap, "hits_total", `proc="P2"`); got != 4 {
		t.Errorf("CounterOf P2 = %g, want 4", got)
	}
	if got := CounterOf(snap, "absent_total", ""); got != 0 {
		t.Errorf("CounterOf absent = %g, want 0", got)
	}
}
