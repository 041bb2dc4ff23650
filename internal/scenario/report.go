package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
)

// CheckStatus is one expectation's verdict.
type CheckStatus string

// Check verdicts. Skip marks an expectation that is not meaningful in the
// report's execution path (probe checks in the simulator, replica
// convergence live): the spec stays valid in both worlds without lying about
// what was verified.
const (
	Pass CheckStatus = "pass"
	Fail CheckStatus = "fail"
	Skip CheckStatus = "skip"
)

// CheckResult is one evaluated expectation.
type CheckResult struct {
	// Name is the expectation's spec key (e.g. "recovery_line_clean").
	Name string `json:"name"`
	// Status is the verdict.
	Status CheckStatus `json:"status"`
	// Detail explains failures and skips (empty on plain passes).
	Detail string `json:"detail,omitempty"`
}

// RunStats carries the run's headline numbers into the report.
type RunStats struct {
	MsgsSent        uint64            `json:"msgs_sent"`
	MsgsDelivered   uint64            `json:"msgs_delivered"`
	StableRounds    map[string]uint64 `json:"stable_rounds,omitempty"`
	HWFaults        int               `json:"hw_faults"`
	SWRecoveries    int               `json:"sw_recoveries"`
	ActiveC1        string            `json:"active_c1"`
	ChaosFrames     uint64            `json:"chaos_frames,omitempty"`
	FaultsInjected  map[string]uint64 `json:"faults_injected,omitempty"`
	ProbesSent      uint64            `json:"probes_sent,omitempty"`
	ProbesDelivered uint64            `json:"probes_delivered,omitempty"`
	// GossipMaxFanIn is the worst per-node dissemination fan-in of a
	// cluster run (zero for three-process scenarios).
	GossipMaxFanIn float64 `json:"gossip_max_fanin,omitempty"`
	// WallSeconds is the live run's measured wall time including the
	// probe drain (zero in the simulator, whose duration is exact).
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// Report is one scenario execution's outcome in one mode.
type Report struct {
	Name     string        `json:"name"`
	Mode     string        `json:"mode"`
	Scheme   string        `json:"scheme"`
	Seed     int64         `json:"seed"`
	Duration Duration      `json:"duration"`
	Passed   bool          `json:"passed"`
	Checks   []CheckResult `json:"checks"`
	Stats    RunStats      `json:"stats"`
}

// EncodeJSON renders the report deterministically (fixed field order, sorted
// maps): two runs of one spec in the simulator produce byte-identical
// output.
func (r *Report) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Failures lists the failed checks.
func (r *Report) Failures() []CheckResult {
	var out []CheckResult
	for _, c := range r.Checks {
		if c.Status == Fail {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders a one-line human verdict.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	var failed []string
	for _, c := range r.Failures() {
		failed = append(failed, c.Name)
	}
	if len(failed) > 0 {
		return fmt.Sprintf("%s %s [%s]: %s", verdict, r.Name, r.Mode, strings.Join(failed, ", "))
	}
	return fmt.Sprintf("%s %s [%s]: %d checks", verdict, r.Name, r.Mode, len(r.Checks))
}

// outcome is what a runner observed; evaluate turns it into a Report. Both
// runners fill the same struct, so an expectation means exactly one thing.
type outcome struct {
	mode       string
	failed     bool
	failReason string

	line    invariant.Line
	lineErr error

	// stableRounds is keyed by display name (P1act…, or C1/C1s… for
	// clusters), the key the report and the min_stable_rounds floor use.
	stableRounds map[string]uint64
	converged    *bool // simulator only (requires quiescence)
	activeC1     msg.ProcID
	// activeName overrides activeC1's rendering when the run's processes
	// are cluster nodes rather than the fixed three.
	activeName string

	// fanin/faninBound carry a cluster run's dissemination fan-in and its
	// fanout·rounds bound; faninKnown distinguishes "not a cluster".
	fanin, faninBound float64
	faninKnown        bool

	hwFaults     int
	swRecoveries int

	chaosStats *chaos.Stats
	crcDrops   *uint64 // live TCP only
	snapshot   obs.Snapshot
	// trace is the three-process live run's protocol trace (its newest
	// traceCapacity events), kept for the failure artifact.
	trace []trace.Event

	sent, delivered uint64

	probesSent, probesDelivered uint64
	wallSeconds                 float64
}

// collect reads the three-process outcome off the assembly — the same
// coord.System in both worlds — once it has stopped. What only one world has
// (convergence at quiescence, probes, CRC drops, wall time, where the chaos
// stats live) is left to its runner.
func collect(mode string, sys *coord.System, reg *obs.Registry) *outcome {
	o := &outcome{
		mode:         mode,
		activeC1:     sys.ActiveC1(),
		snapshot:     reg.Snapshot(),
		stableRounds: make(map[string]uint64),
	}
	o.failed, o.failReason = sys.Failed()
	o.line, o.lineErr = sys.RecoveryLine()
	m := sys.Metrics()
	o.hwFaults, o.swRecoveries = m.HWFaults, m.SWRecoveries
	for _, id := range msg.Processes() {
		// An error means the scheme has no such process.
		_ = sys.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) {
			if cp != nil {
				o.stableRounds[id.String()] = cp.Ndc()
			}
		})
	}
	o.sent, o.delivered = sys.NetworkStats()
	return o
}

// familyTotal sums every series of one metric family.
func familyTotal(s obs.Snapshot, name string) float64 {
	var total float64
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, ss := range f.Series {
			total += ss.Value
		}
	}
	return total
}

// evaluate runs the spec's expectations over what the runner observed.
func evaluate(spec *Spec, o *outcome) *Report {
	activeName := o.activeName
	if activeName == "" {
		activeName = o.activeC1.String()
	}
	r := &Report{
		Name:     spec.Name,
		Mode:     o.mode,
		Scheme:   spec.SchemeName(),
		Seed:     spec.Seed,
		Duration: spec.Duration,
		Stats: RunStats{
			MsgsSent:        o.sent,
			MsgsDelivered:   o.delivered,
			HWFaults:        o.hwFaults,
			SWRecoveries:    o.swRecoveries,
			ActiveC1:        activeName,
			ProbesSent:      o.probesSent,
			ProbesDelivered: o.probesDelivered,
			GossipMaxFanIn:  o.fanin,
			WallSeconds:     o.wallSeconds,
		},
	}
	if len(o.stableRounds) > 0 {
		r.Stats.StableRounds = make(map[string]uint64, len(o.stableRounds))
		for name, n := range o.stableRounds {
			r.Stats.StableRounds[name] = n
		}
	}
	if o.chaosStats != nil {
		r.Stats.ChaosFrames = o.chaosStats.Frames
		r.Stats.FaultsInjected = map[string]uint64{
			"drop":      o.chaosStats.Dropped,
			"partition": o.chaosStats.Partitioned,
			"duplicate": o.chaosStats.Duplicated,
			"corrupt":   o.chaosStats.Corrupted,
			"delay":     o.chaosStats.Delayed,
		}
		if o.chaosStats.FsyncStalled > 0 {
			r.Stats.FaultsInjected["fsync-stall"] = o.chaosStats.FsyncStalled
		}
		for kind, n := range map[string]uint64{
			"disk-write-err": o.chaosStats.DiskWriteErrs,
			"disk-torn":      o.chaosStats.DiskTornWrites,
			"disk-sync-err":  o.chaosStats.DiskSyncErrs,
			"disk-corrupt":   o.chaosStats.DiskReadCorrupts,
		} {
			if n > 0 {
				r.Stats.FaultsInjected[kind] = n
			}
		}
	}

	e := spec.Expect
	add := func(name string, status CheckStatus, detail string) {
		r.Checks = append(r.Checks, CheckResult{Name: name, Status: status, Detail: detail})
	}
	check := func(name string, ok bool, detail string) {
		if ok {
			add(name, Pass, "")
		} else {
			add(name, Fail, detail)
		}
	}

	if e.NoFailure != nil {
		want := *e.NoFailure
		got := !o.failed
		check("no_failure", got == want, fmt.Sprintf("failed=%v (%s), want failed=%v", o.failed, o.failReason, !want))
	}
	if e.RecoveryLineClean != nil {
		switch {
		case o.lineErr != nil:
			check("recovery_line_clean", !*e.RecoveryLineClean, fmt.Sprintf("no recovery line: %v", o.lineErr))
		default:
			vs := o.line.Check()
			var kinds []string
			for _, v := range vs {
				kinds = append(kinds, v.String())
			}
			check("recovery_line_clean", (len(vs) == 0) == *e.RecoveryLineClean,
				fmt.Sprintf("%d violation(s): %s", len(vs), strings.Join(kinds, "; ")))
		}
	}
	if e.MinStableRounds != nil {
		names := make([]string, 0, len(o.stableRounds))
		for name := range o.stableRounds {
			names = append(names, name)
		}
		sort.Strings(names)
		var lagging []string
		for _, name := range names {
			if n := o.stableRounds[name]; n < *e.MinStableRounds {
				lagging = append(lagging, fmt.Sprintf("%s=%d", name, n))
			}
		}
		check("min_stable_rounds", len(lagging) == 0,
			fmt.Sprintf("below floor %d: %s", *e.MinStableRounds, strings.Join(lagging, ", ")))
	}
	if e.ReplicasConverged != nil {
		if o.converged == nil {
			add("replicas_converged", Skip, "requires quiescence; simulator only")
		} else {
			check("replicas_converged", *o.converged == *e.ReplicasConverged,
				fmt.Sprintf("converged=%v, want %v", *o.converged, *e.ReplicasConverged))
		}
	}
	if e.SWRecoveries != nil {
		check("sw_recoveries", o.swRecoveries == *e.SWRecoveries,
			fmt.Sprintf("completed %d software recoveries, want %d", o.swRecoveries, *e.SWRecoveries))
	}
	if e.HWFaults != nil {
		check("hw_faults", o.hwFaults == *e.HWFaults,
			fmt.Sprintf("recovered %d hardware faults, want %d", o.hwFaults, *e.HWFaults))
	}
	if e.Active != "" {
		check("active", activeName == e.Active,
			fmt.Sprintf("component 1 active is %s, want %s", activeName, e.Active))
	}
	if len(e.FaultKinds) > 0 {
		evaluateFaultKinds(spec, o, add, check)
	}
	if e.FaultCountersMatch != nil {
		evaluateCounters(o, add, check)
	}
	if e.CheckpointsRecorded != nil {
		stable := familyTotal(o.snapshot, "synergy_tb_stable_commits_total")
		volatile := familyTotal(o.snapshot, "synergy_mdcd_checkpoints_total")
		check("checkpoints_recorded", (stable > 0 && volatile > 0) == *e.CheckpointsRecorded,
			fmt.Sprintf("stable commits=%v volatile checkpoints=%v", stable, volatile))
	}
	if e.MaxBlocking > 0 {
		evaluateBlocking(e.MaxBlocking.D(), o, check)
	}
	if e.MinProbeRate > 0 {
		if o.mode != ModeLive {
			add("min_probe_rate", Skip, "probes are live-transport traffic")
		} else {
			achieved := 0.0
			if o.wallSeconds > 0 {
				achieved = float64(o.probesDelivered) / o.wallSeconds
			}
			check("min_probe_rate", achieved >= e.MinProbeRate,
				fmt.Sprintf("achieved %.0f probes/sec < floor %.0f", achieved, e.MinProbeRate))
		}
	}
	if e.AllProbesDelivered != nil {
		if o.mode != ModeLive {
			add("all_probes_delivered", Skip, "probes are live-transport traffic")
		} else {
			check("all_probes_delivered", (o.probesDelivered == o.probesSent) == *e.AllProbesDelivered,
				fmt.Sprintf("delivered %d of %d probes after drain", o.probesDelivered, o.probesSent))
		}
	}
	if e.GossipFaninBounded != nil {
		if !o.faninKnown {
			add("gossip_fanin_bounded", Skip, "requires a cluster topology")
		} else {
			bounded := o.fanin > 0 && o.fanin <= o.faninBound
			check("gossip_fanin_bounded", bounded == *e.GossipFaninBounded,
				fmt.Sprintf("max per-node fan-in %.2f against fanout·rounds bound %.0f", o.fanin, o.faninBound))
		}
	}

	r.Passed = true
	for _, c := range r.Checks {
		if c.Status == Fail {
			r.Passed = false
		}
	}
	return r
}

// evaluateFaultKinds asserts each listed injected-fault kind actually fired.
func evaluateFaultKinds(spec *Spec, o *outcome,
	add func(string, CheckStatus, string), check func(string, bool, string)) {
	if o.chaosStats == nil {
		check("fault_kinds", false, "no fault injector ran")
		return
	}
	st := o.chaosStats
	var silent, skipped []string
	for _, k := range spec.Expect.FaultKinds {
		fired, known := map[string]bool{
			"drop":           st.Dropped > 0,
			"duplicate":      st.Duplicated > 0,
			"corrupt":        st.Corrupted > 0,
			"delay":          st.Delayed > 0,
			"partition":      st.Partitioned > 0,
			"fsync-stall":    st.FsyncStalled > 0,
			"disk-write-err": st.DiskWriteErrs > 0,
			"disk-torn":      st.DiskTornWrites > 0,
			"disk-sync-err":  st.DiskSyncErrs > 0,
			"disk-corrupt":   st.DiskReadCorrupts > 0,
		}[k], true
		if k == "crc-catch" {
			if o.crcDrops == nil {
				skipped = append(skipped, k)
				continue
			}
			fired = *o.crcDrops > 0
		} else if storageFaultKind(k) && o.mode == ModeSim {
			// The simulator has no storage layer to stall or fault.
			skipped = append(skipped, k)
			continue
		}
		if known && !fired {
			silent = append(silent, k)
		}
	}
	sort.Strings(skipped)
	if len(skipped) > 0 && len(silent) == 0 {
		add("fault_kinds", Pass, fmt.Sprintf("skipped in %s mode: %s", o.mode, strings.Join(skipped, ", ")))
		return
	}
	check("fault_kinds", len(silent) == 0,
		fmt.Sprintf("kinds never fired: %s (run longer or raise rates)", strings.Join(silent, ", ")))
}

// storageFaultKind reports whether the kind fires in the storage layer,
// which only the live stack has (the simulator keeps stable storage in
// memory).
func storageFaultKind(k string) bool {
	return k == "fsync-stall" || strings.HasPrefix(k, "disk-")
}

// evaluateCounters cross-checks the obs fault counters against the
// injector's stats: both are fed by the same verdicts, so they must agree
// exactly. Disk-fault counters live on a per-proc storage family
// (synergy_storage_injected_faults_total), so each kind sums its series.
func evaluateCounters(o *outcome,
	add func(string, CheckStatus, string), check func(string, bool, string)) {
	if o.chaosStats == nil {
		add("fault_counters_match", Skip, "no fault injector ran")
		return
	}
	st := o.chaosStats
	kindTotal := func(family, kind string) float64 {
		var total float64
		want := `kind="` + kind + `"`
		for _, f := range o.snapshot.Families {
			if f.Name != family {
				continue
			}
			for _, s := range f.Series {
				if strings.Contains(s.Labels, want) {
					total += s.Value
				}
			}
		}
		return total
	}
	var off []string
	for _, chk := range []struct {
		family, kind string
		want         uint64
	}{
		{"synergy_chaos_injected_faults_total", "drop", st.Dropped},
		{"synergy_chaos_injected_faults_total", "partition", st.Partitioned},
		{"synergy_chaos_injected_faults_total", "duplicate", st.Duplicated},
		{"synergy_chaos_injected_faults_total", "corrupt", st.Corrupted},
		{"synergy_chaos_injected_faults_total", "delay", st.Delayed},
		{"synergy_chaos_injected_faults_total", "fsync-stall", st.FsyncStalled},
		{"synergy_storage_injected_faults_total", "disk-write-err", st.DiskWriteErrs},
		{"synergy_storage_injected_faults_total", "disk-torn", st.DiskTornWrites},
		{"synergy_storage_injected_faults_total", "disk-sync-err", st.DiskSyncErrs},
		{"synergy_storage_injected_faults_total", "disk-corrupt", st.DiskReadCorrupts},
	} {
		if got := kindTotal(chk.family, chk.kind); got != float64(chk.want) {
			off = append(off, fmt.Sprintf("%s: obs=%v injector=%d", chk.kind, got, chk.want))
		}
	}
	frames := familyTotal(o.snapshot, "synergy_chaos_frames_total")
	if frames != float64(st.Frames) {
		off = append(off, fmt.Sprintf("frames: obs=%v injector=%d", frames, st.Frames))
	}
	check("fault_counters_match", len(off) == 0, strings.Join(off, "; "))
}

// evaluateBlocking asserts every observed τ(b) fits under the bound, read
// from the blocking histogram's cumulative buckets: the first bucket whose
// bound reaches the limit must already hold every observation.
func evaluateBlocking(limit time.Duration, o *outcome, check func(string, bool, string)) {
	limitSec := limit.Seconds()
	var total, under uint64
	seen := false
	for _, f := range o.snapshot.Families {
		if f.Name != "synergy_tb_blocking_seconds" {
			continue
		}
		for _, s := range f.Series {
			seen = true
			total += s.Count
			// Buckets are cumulative; the tightest bound at or above the
			// limit tells how many observations fit under it.
			best := uint64(0)
			for _, b := range s.Buckets {
				if b.UpperBound >= limitSec || math.IsInf(b.UpperBound, 1) {
					best = b.Count
					break
				}
			}
			under += best
		}
	}
	if !seen || total == 0 {
		check("max_blocking", true, "")
		return
	}
	check("max_blocking", under == total,
		fmt.Sprintf("%d of %d blocking periods exceed %v", total-under, total, limit))
}
