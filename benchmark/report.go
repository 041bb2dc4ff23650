package benchmark

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as its last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewResult shapes measured values into a Result holding exactly the
// metrics of table, in the table's units. A metric the run did not measure
// reads 0, and a value that is not a finite number fails the run.
func NewResult(table []Metric, values map[string]float64, checks *Checks) Result {
	r := Result{Metrics: make(map[string]Value, len(table))}
	for _, m := range table {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			checks.Expect(false, "metric %s is not finite", m.Name)
			v = 0
		}
		r.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	r.Attempted, r.Failed = checks.Attempted, checks.Failed
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
	return r
}

// Checks counts the operations a run attempted and the ones that failed its
// correctness checks; failed ÷ attempted is the run's failure share.
type Checks struct {
	Attempted, Failed int64
	// Failures keeps the first few failure messages for the report.
	Failures []string
}

// maxFailures bounds the failure messages a run keeps.
const maxFailures = 20

// Count adds attempted operations of which failed did not pass; what names
// them in the report when any failed.
func (c *Checks) Count(attempted, failed int64, what string) {
	c.Attempted += attempted
	if failed > 0 {
		c.Failed += failed
		c.note(fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

// Expect counts one check and records the message when it does not hold.
func (c *Checks) Expect(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.Failed++
		c.note(fmt.Sprintf(format, args...))
	}
}

func (c *Checks) note(s string) {
	if len(c.Failures) < maxFailures {
		c.Failures = append(c.Failures, s)
	}
}

// FormatMetrics renders the table's metrics with their values, one per
// line, for the human-readable report.
func FormatMetrics(table []Metric, r Result) string {
	var b strings.Builder
	for _, m := range table {
		v := r.Metrics[m.Name]
		fmt.Fprintf(&b, "  %-40s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	return b.String()
}

// SpreadRow is one metric's repeatability over the runs of a -repeat set.
type SpreadRow struct {
	Workload, Metric string
	Unit             string
	Min, Median, Max float64
	// Spread is the acceptance rule's measure, the interquartile distance
	// over the median, once there are runs enough for quartiles to mean
	// something (four); below that it is the full range over the median.
	Spread, Bound float64
	// Exceeds marks a spread beyond the metric's bound. setup_s is
	// reported but never marked: the acceptance rule exempts it.
	Exceeds bool
}

// SpreadRows summarises runs (one map of metric values per run) of one
// workload against the end-to-end bounds.
func SpreadRows(workload string, runs []map[string]float64) []SpreadRow {
	var rows []SpreadRow
	for _, m := range EndToEnd {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r[m.Name])
		}
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		row := SpreadRow{
			Workload: workload, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
			Min: xs[0], Median: Percentile(xs, 50), Max: xs[len(xs)-1],
		}
		if len(xs) >= 4 {
			row.Spread = Spread(xs)
		} else if row.Median != 0 {
			row.Spread = (row.Max - row.Min) / math.Abs(row.Median)
		}
		row.Exceeds = m.Name != SetupS && row.Spread > m.Bound
		rows = append(rows, row)
	}
	return rows
}

// FormatSpread renders repeatability rows as a table.
func FormatSpread(rows []SpreadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-16s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, r := range rows {
		mark := ""
		if r.Exceeds {
			mark = "  EXCEEDS"
		}
		fmt.Fprintf(&b, "%-16s %-16s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%%s\n",
			r.Workload, r.Metric, r.Min, r.Median, r.Max, 100*r.Spread, 100*r.Bound, mark)
	}
	return b.String()
}
