// Command synergy-load is an open-loop load driver for the live middleware's
// batched transport: it injects probe messages on an arrival schedule that
// does NOT adapt to the system's completion rate (open loop — the honest way
// to measure a queueing system under offered load), round-robining the six
// directed process pairs, and reports achieved throughput, delivery-latency
// percentiles from the transport's sampled histogram, and the TB blocking
// time τ(b) the protocol paid while the wire was busy.
//
// Schedules:
//
//	poisson  exponential inter-arrivals at -rate (a memoryless steady load)
//	ramp     deterministic spacing, rate climbing linearly -rate → -rate2
//	burst    alternating half-periods of -rate and -rate2
//	diurnal  sinusoidal rate -rate*(1 ± 0.8), period -period
//
// The default -schedule all runs each schedule on a fresh middleware so the
// four results are independent. The -out snapshot uses the same JSON shape
// as scripts/bench.sh.
//
// Example:
//
//	synergy-load -schedule poisson -rate 20000 -duration 5s -out load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/synergy-ft/synergy/internal/live"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "synergy-load:", err)
		os.Exit(1)
	}
}

// options carries the per-schedule run parameters.
type options struct {
	seed     int64
	duration time.Duration
	interval time.Duration
	rate     float64
	rate2    float64
	period   time.Duration
	protocol bool
	tcpOnly  bool
	metrics  string
}

func run() error {
	var (
		specPath = flag.String("spec", "", "derive seed, duration, interval, schedule, rates and assertions from a scenario spec's workload.probes (flags below then act as overrides only where noted)")
		seed     = flag.Int64("seed", 1, "workload and schedule seed")
		duration = flag.Duration("duration", 2*time.Second, "wall-clock run time per schedule")
		schedule = flag.String("schedule", "all", "arrival schedule: poisson, ramp, burst, diurnal, or all")
		rate     = flag.Float64("rate", 20000, "offered probe rate in msgs/sec (poisson: the rate; ramp: start; burst/diurnal: base)")
		rate2    = flag.Float64("rate2", 0, "second rate for ramp (end) and burst (high half-period); 0 picks 4x -rate")
		period   = flag.Duration("period", time.Second, "burst and diurnal modulation period")
		interval = flag.Duration("interval", 100*time.Millisecond, "TB checkpoint interval Δ")
		noProto  = flag.Bool("no-protocol", false, "skip Start(): probes only, no checkpoint/workload traffic (isolates the transport; τ(b) stays empty)")
		minRate  = flag.Float64("min-rate", 0, "fail unless every schedule achieves this many delivered msgs/sec (0 disables)")
		expect   = flag.Bool("expect-all-delivered", false, "fail unless the obs delivered-probe counter equals the driver's send count after draining")
		out      = flag.String("out", "", "write a bench.sh-shaped JSON result snapshot here (empty disables)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics and /metrics.json during the run (e.g. 127.0.0.1:0; empty disables)")
	)
	flag.Parse()

	if *specPath != "" {
		sp, err := scenario.LoadFile(*specPath)
		if err != nil {
			return err
		}
		p := sp.Workload.Probes
		if p == nil {
			return fmt.Errorf("spec %s: no workload.probes to drive", sp.Name)
		}
		*seed = sp.Seed
		*duration = sp.Duration.D()
		*interval = sp.Topology.Interval()
		*schedule = p.Schedule
		*rate = p.Rate
		if p.Rate2 != 0 {
			*rate2 = p.Rate2
		}
		if p.Period > 0 {
			*period = p.Period.D()
		}
		if *minRate == 0 {
			*minRate = sp.Expect.MinProbeRate
		}
		if sp.Expect.AllProbesDelivered != nil && *sp.Expect.AllProbesDelivered {
			*expect = true
		}
	}

	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive")
	}
	if *rate2 == 0 {
		*rate2 = 4 * *rate
	}
	if *rate2 <= 0 {
		return fmt.Errorf("-rate2 must be positive")
	}
	if *duration <= 0 || *period <= 0 {
		return fmt.Errorf("-duration and -period must be positive")
	}
	var schedules []string
	if *schedule == "all" {
		schedules = []string{"poisson", "ramp", "burst", "diurnal"}
	} else {
		for _, s := range strings.Split(*schedule, ",") {
			switch s {
			case "poisson", "ramp", "burst", "diurnal":
				schedules = append(schedules, s)
			default:
				return fmt.Errorf("unknown schedule %q (want poisson, ramp, burst, diurnal or all)", s)
			}
		}
	}

	opts := options{
		seed:     *seed,
		duration: *duration,
		interval: *interval,
		rate:     *rate,
		rate2:    *rate2,
		period:   *period,
		protocol: !*noProto,
		metrics:  *metrics,
	}

	var entries []benchEntry
	var failures []string
	for _, sc := range schedules {
		res, err := runSchedule(sc, opts)
		if err != nil {
			return fmt.Errorf("schedule %s: %w", sc, err)
		}
		fmt.Printf("%-8s sent=%d delivered=%d achieved=%.0f msgs/sec offered=%.0f\n",
			sc, res.sent, res.delivered, res.achieved, res.offered)
		if res.latCount > 0 {
			fmt.Printf("         delivery latency (sampled n=%d): p50=%.3fms p99=%.3fms mean=%.3fms\n",
				res.latCount, res.p50*1e3, res.p99*1e3, res.latMean*1e3)
		} else {
			fmt.Printf("         delivery latency: no samples\n")
		}
		if res.tbCount > 0 {
			fmt.Printf("         tb blocking: n=%d mean=%.3fms total=%.1fms\n",
				res.tbCount, res.tbMean*1e3, res.tbSum*1e3)
		}
		entries = append(entries, res.entry(sc))
		if *minRate > 0 && res.achieved < *minRate {
			failures = append(failures,
				fmt.Sprintf("%s: achieved %.0f msgs/sec < floor %.0f", sc, res.achieved, *minRate))
		}
		if *expect && res.delivered != res.sent {
			failures = append(failures,
				fmt.Sprintf("%s: delivered %d != sent %d after drain", sc, res.delivered, res.sent))
		}
	}

	if *out != "" {
		if err := writeSnapshot(*out, *duration, entries); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if len(failures) > 0 {
		return fmt.Errorf("assertions failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// result is one schedule's measured outcome.
type result struct {
	sent, delivered   uint64
	offered           float64 // time-averaged scheduled rate
	achieved          float64 // delivered / wall time
	latCount          uint64
	latMean, p50, p99 float64 // seconds
	tbCount           uint64
	tbMean, tbSum     float64 // seconds
}

func (r result) entry(schedule string) benchEntry {
	m := map[string]float64{
		"msgs/sec":    r.achieved,
		"offered/sec": r.offered,
		"delivered":   float64(r.delivered),
		"p50_ms":      r.p50 * 1e3,
		"p99_ms":      r.p99 * 1e3,
		"tb_block_ms": r.tbMean * 1e3,
		"latency_n":   float64(r.latCount),
	}
	// ns/op is the snapshot's headline: mean delivery latency per
	// message, falling back to the inverse achieved rate when the sampled
	// histogram came up empty.
	switch {
	case r.latCount > 0:
		m["ns/op"] = r.latMean * 1e9
	case r.achieved > 0:
		m["ns/op"] = 1e9 / r.achieved
	}
	return benchEntry{
		Package:    "github.com/synergy-ft/synergy/cmd/synergy-load",
		Name:       "Load/" + schedule,
		Iterations: r.sent,
		Metrics:    m,
	}
}

// sixPairs is the round-robin order of directed channels the driver loads.
var sixPairs = [][2]msg.ProcID{
	{msg.P1Act, msg.P2}, {msg.P2, msg.P1Act},
	{msg.P1Sdw, msg.P2}, {msg.P2, msg.P1Sdw},
	{msg.P1Act, msg.P1Sdw}, {msg.P1Sdw, msg.P1Act},
}

func runSchedule(schedule string, o options) (result, error) {
	reg := obs.NewRegistry()
	cfg := live.DefaultConfig(o.seed)
	cfg.Net = live.TCPTransport
	cfg.CheckpointInterval = o.interval
	cfg.Obs = reg
	// Probes measure the transport itself; keep artificial per-message
	// delay out of the measurement.
	cfg.MinDelay, cfg.MaxDelay = 0, 0

	mw, err := live.New(cfg)
	if err != nil {
		return result{}, err
	}
	defer mw.Stop()

	if o.metrics != "" {
		srv, err := obs.NewServer(o.metrics, reg)
		if err != nil {
			return result{}, err
		}
		defer srv.Close()
		fmt.Printf("metrics listening on %s\n", srv.Addr())
	}
	if o.protocol {
		// Run the full protocol alongside the probes: checkpoint and
		// workload traffic shares the wire, so τ(b) reflects the offered
		// load's impact on the blocking period.
		mw.Start()
	}

	rng := rand.New(rand.NewSource(o.seed))
	// The arrival generators live in internal/scenario so the load driver
	// and the scenario engine share one schedule definition.
	gap := scenario.Probes{
		Schedule: schedule, Rate: o.rate, Rate2: o.rate2,
		Period: scenario.Duration(o.period),
	}.Gaps(o.duration, rng)
	start := time.Now()
	next := start
	var sends uint64
	for {
		now := time.Now()
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			now = next
		}
		elapsed := now.Sub(start)
		if elapsed >= o.duration {
			break
		}
		p := sixPairs[sends%uint64(len(sixPairs))]
		mw.SendProbe(p[0], p[1])
		sends++
		// Open loop: the next arrival is scheduled relative to the previous
		// arrival, never relative to completion. Falling behind means the
		// loop sends back-to-back until it catches up — exactly the overload
		// behavior an open-loop driver must preserve.
		next = next.Add(gap(elapsed))
	}

	// Drain: wait for in-flight probes to reach the far side.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		s, d := mw.ProbeStats()
		if d >= s || time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	sent, delivered := mw.ProbeStats()
	mw.Stop()

	snap := reg.Snapshot()
	res := result{
		sent:      sent,
		delivered: delivered,
		offered:   float64(sends) / o.duration.Seconds(),
		achieved:  float64(delivered) / wall,
	}
	res.latCount, res.latMean, res.p50, res.p99 = histQuantiles(snap,
		"synergy_live_delivery_latency_seconds", 0.50, 0.99)
	res.tbCount, res.tbMean, _, _ = histQuantiles(snap, "synergy_tb_blocking_seconds", 0.50, 0.99)
	res.tbSum = res.tbMean * float64(res.tbCount)
	return res, nil
}

// histQuantiles merges every series of the named histogram family and
// returns the total count, the mean, and linearly interpolated quantiles q1
// and q2 (zero when the histogram is empty or absent).
func histQuantiles(snap obs.Snapshot, name string, qa, qb float64) (count uint64, mean, q1, q2 float64) {
	var bounds []float64
	var cum []uint64
	var sum float64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if bounds == nil {
				bounds = make([]float64, len(s.Buckets))
				cum = make([]uint64, len(s.Buckets))
				for i, b := range s.Buckets {
					bounds[i] = b.UpperBound
				}
			}
			for i, b := range s.Buckets {
				if i < len(cum) {
					cum[i] += b.Count
				}
			}
			sum += s.Sum
			count += s.Count
		}
	}
	if count == 0 {
		return 0, 0, 0, 0
	}
	mean = sum / float64(count)
	return count, mean, quantile(bounds, cum, count, qa), quantile(bounds, cum, count, qb)
}

// quantile interpolates q within merged cumulative histogram buckets; the
// +Inf bucket collapses to the last finite bound (the histogram's resolution
// limit).
func quantile(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	target := q * float64(total)
	idx := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= target })
	if idx >= len(bounds) {
		idx = len(bounds) - 1
	}
	hi := bounds[idx]
	if math.IsInf(hi, 1) {
		for idx > 0 && math.IsInf(bounds[idx], 1) {
			idx--
		}
		return bounds[idx]
	}
	lo, prev := 0.0, 0.0
	if idx > 0 {
		lo = bounds[idx-1]
		prev = float64(cum[idx-1])
	}
	width := float64(cum[idx]) - prev
	if width <= 0 {
		return hi
	}
	return lo + (hi-lo)*(target-prev)/width
}

// benchEntry mirrors one scripts/bench.sh benchmark record.
type benchEntry struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations uint64             `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// snapshotFile mirrors the scripts/bench.sh JSON layout.
type snapshotFile struct {
	Date       string       `json:"date"`
	Go         string       `json:"go"`
	Gomaxprocs int          `json:"gomaxprocs"`
	Benchtime  string       `json:"benchtime"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

func writeSnapshot(path string, duration time.Duration, entries []benchEntry) error {
	s := snapshotFile{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Benchtime:  duration.String(),
		Benchmarks: entries,
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
