package benchmark

import (
	"math"
	"sort"
	"strings"

	"github.com/synergy-ft/synergy/internal/obs"
)

// Summary is a timing reported by the percentile rule: the median plus the
// highest percentile that has at least ten samples beyond it.
type Summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// TailPercentile returns the highest ladder percentile with at least ten of
// n samples beyond it, or 100 (the maximum) when even the 75th has fewer.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 100
}

// Summarize applies the percentile rule to samples (any order; not modified).
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pct := TailPercentile(len(s))
	return Summary{N: len(s), P50: Percentile(s, 50), Tail: Percentile(s, pct), TailPct: pct}
}

// minSlice is the fewest samples a slice needs to count towards
// SlicePercentile: a run's last slice is usually a stub.
const minSlice = 20

// SlicePercentile summarises a latency measured in consecutive slices of a
// window (one per second, say): the pct-th percentile of each slice holding
// at least minSlice samples is taken, and the median slice's is returned — a
// disturbance that lasts one slice does not move it, which a high percentile
// over the whole window would not survive. With no slice that large it is
// the percentile of all samples together.
func SlicePercentile(slices [][]float64, pct float64) float64 {
	var per, all []float64
	for _, s := range slices {
		all = append(all, s...)
		if len(s) < minSlice {
			continue
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		per = append(per, Percentile(sorted, pct))
	}
	if len(per) == 0 {
		sort.Float64s(all)
		return Percentile(all, pct)
	}
	return Median(per)
}

// Percentile reads the p-th percentile (0..100) off sorted samples by linear
// interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// Median returns the median of xs (0 when empty; xs is not modified).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 50)
}

// Ratio is n ÷ d, or 0 when there is nothing to divide by (a layer the
// workload left idle).
func Ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the benchmark's acceptance rule is written in. It needs two samples.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile distance of xs as a share of their median.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// Hist is one obs histogram family with all its series merged.
type Hist struct {
	Bounds []float64 // upper bounds, the last one +Inf
	Cum    []uint64  // cumulative counts per bound
	Count  uint64
	Sum    float64
}

// HistOf merges every series of the named histogram family whose label
// string contains label (empty matches all).
func HistOf(snap obs.Snapshot, name, label string) Hist {
	var h Hist
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if !strings.Contains(s.Labels, label) || len(s.Buckets) == 0 {
				continue
			}
			if h.Bounds == nil {
				h.Bounds = make([]float64, len(s.Buckets))
				h.Cum = make([]uint64, len(s.Buckets))
				for i, b := range s.Buckets {
					h.Bounds[i] = b.UpperBound
				}
			}
			for i, b := range s.Buckets {
				if i < len(h.Cum) {
					h.Cum[i] += b.Count
				}
			}
			h.Count += s.Count
			h.Sum += s.Sum
		}
	}
	return h
}

// Sub returns the observations h gained since the earlier reading prev of
// the same family (an empty prev subtracts nothing).
func (h Hist) Sub(prev Hist) Hist {
	if len(prev.Cum) != len(h.Cum) {
		return h
	}
	out := Hist{Bounds: h.Bounds, Cum: make([]uint64, len(h.Cum)), Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	for i := range h.Cum {
		out.Cum[i] = h.Cum[i] - prev.Cum[i]
	}
	return out
}

// Mean returns the histogram's mean observation (0 when empty).
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile interpolates the q-quantile (0..1) linearly inside the bucket
// that holds it. The buckets double, so the answer is exact only to within
// the bucket: a reading is a position inside a 2x interval, not a stamp.
// The +Inf bucket collapses to the last finite bound.
func (h Hist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	idx := sort.Search(len(h.Cum), func(i int) bool { return float64(h.Cum[i]) >= target })
	if idx >= len(h.Bounds) {
		idx = len(h.Bounds) - 1
	}
	if math.IsInf(h.Bounds[idx], 1) {
		if idx == 0 {
			return 0
		}
		return h.Bounds[idx-1]
	}
	lo, below := 0.0, 0.0
	if idx > 0 {
		lo, below = h.Bounds[idx-1], float64(h.Cum[idx-1])
	}
	in := float64(h.Cum[idx]) - below
	if in <= 0 {
		return h.Bounds[idx]
	}
	return lo + (h.Bounds[idx]-lo)*(target-below)/in
}

// CounterOf sums every series of the named counter or gauge family whose
// label string contains label (empty matches all).
func CounterOf(snap obs.Snapshot, name, label string) float64 {
	var sum float64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if strings.Contains(s.Labels, label) {
				sum += s.Value
			}
		}
	}
	return sum
}
