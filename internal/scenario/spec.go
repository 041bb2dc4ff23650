// Package scenario is the spec-driven scenario engine: a declarative JSON
// grammar composing workload × chaos × topology × scheme with per-scenario
// invariant expectations, and runners that execute the same spec in both the
// discrete-event simulator (internal/coord) and the live middleware
// (internal/live). Each committed spec under specs/ is one named, repeatable
// fault campaign; the runners end every run with the same expectation
// evaluation, so a scenario's verdict means the same thing in both worlds.
//
// The grammar is stdlib-parsed (encoding/json, unknown fields rejected) with
// every duration written as a time.ParseDuration string ("150ms"), so specs
// stay reviewable as text diffs. Parse → Encode → Parse is a fixpoint; the
// fuzz target holds the codec to that.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/msg"
)

// Duration marshals as a time.ParseDuration string so specs read "150ms",
// never 150000000.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler. Only strings are accepted:
// a bare number is ambiguous (ns? ms?) and is exactly the spelling mistake
// the corpus wall should catch.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"150ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is one named scenario: what to run, what to break, and what must
// still hold afterwards.
type Spec struct {
	// Name identifies the scenario in reports and artifacts.
	Name string `json:"name"`
	// Description says what the scenario exercises, for reviewers.
	Description string `json:"description,omitempty"`
	// Seed drives every random decision (workload, chaos, clocks).
	Seed int64 `json:"seed"`
	// Scheme selects the fault-tolerance composition; defaults to
	// "coordinated" (the only scheme the live stack implements — specs
	// that must run in both worlds use it).
	Scheme string `json:"scheme,omitempty"`
	// Duration is how long the scenario runs (virtual time in the
	// simulator, wall time live).
	Duration Duration `json:"duration"`
	// Modes lists the execution paths the spec supports: "sim", "live".
	// Empty means both.
	Modes []string `json:"modes,omitempty"`
	// Topology shapes the nodes, clocks, interconnect and storage.
	Topology Topology `json:"topology,omitempty"`
	// Workload drives the application components and optional probe load.
	Workload Workload `json:"workload,omitempty"`
	// Chaos schedules the faults.
	Chaos Chaos `json:"chaos,omitempty"`
	// Faults schedules software fault activations and the acceptance-test
	// oracle quality.
	Faults Faults `json:"faults,omitempty"`
	// Expect lists the invariant expectations; at least one is required
	// (a scenario that asserts nothing tests nothing).
	Expect Expect `json:"expect"`
}

// Topology shapes the run's nodes, clocks, interconnect and storage. Zero
// fields take the engine defaults (see applyDefaults).
type Topology struct {
	// Transport selects the live interconnect: "chan" (in-process,
	// default) or "tcp" (loopback sockets; required for frame chaos).
	// The simulator always uses its virtual-time network.
	Transport string `json:"transport,omitempty"`
	// Durable backs live stable storage with on-disk logs (implied by
	// crash or fsync-stall schedules).
	Durable bool `json:"durable,omitempty"`
	// CheckpointInterval is the TB interval Δ (default 100ms).
	CheckpointInterval Duration `json:"checkpoint_interval,omitempty"`
	// ClockMaxDeviation is δ, the clock synchronization bound (default 2ms).
	ClockMaxDeviation Duration `json:"clock_max_deviation,omitempty"`
	// ClockDriftRate is ρ, the clock drift bound (default 1e-4).
	ClockDriftRate float64 `json:"clock_drift_rate,omitempty"`
	// MinDelay and MaxDelay bound message delivery (defaults 200µs/2ms).
	// MinDelay of "0s" is honored; an absent MaxDelay takes the default,
	// so an explicitly zero-delay interconnect sets both to "0s" and
	// ZeroDelay.
	MinDelay Duration `json:"min_delay,omitempty"`
	MaxDelay Duration `json:"max_delay,omitempty"`
	// ZeroDelay forces MinDelay = MaxDelay = 0 (pure-transport load
	// measurement); needed because an absent max_delay means "default".
	ZeroDelay bool `json:"zero_delay,omitempty"`
	// Cluster switches the scenario from the fixed three-process
	// architecture to an N-node cluster (internal/cluster): a ring of
	// components lowered one node per replica, coordinated over the gossip
	// dissemination layer. Chaos and expectations then name nodes "C<i>"
	// (component i's active) and "C<i>s" (its shadow).
	Cluster *ClusterSpec `json:"cluster,omitempty"`
}

// ClusterSpec shapes an N-node cluster scenario: a ring topology with the
// first Guarded components under guarded operation (nodes = components +
// guarded, since each guarded component adds a shadow).
type ClusterSpec struct {
	// Components is the ring size (each component sends to its successor).
	Components int `json:"components"`
	// Guarded is how many components run guarded with a shadow replica.
	Guarded int `json:"guarded"`
	// InternalRate and ExternalRate drive every component's workload in
	// events/sec (defaults 50 and 5, the engine's component defaults).
	InternalRate float64 `json:"internal_rate,omitempty"`
	ExternalRate float64 `json:"external_rate,omitempty"`
	// Fanout and GossipRounds parameterize the epidemic dissemination
	// layer (the gossip package defaults apply when zero).
	Fanout       int `json:"fanout,omitempty"`
	GossipRounds int `json:"gossip_rounds,omitempty"`
	// GossipInterval is the anti-entropy tick period (default 8·MaxDelay).
	GossipInterval Duration `json:"gossip_interval,omitempty"`
}

// Workload drives the two application components and the optional
// transport-probe load.
type Workload struct {
	// Component1 and Component2 set the per-component event rates
	// (events/sec). Absent components take the engine default
	// (internal 50/s, external 5/s).
	Component1 *ComponentLoad `json:"component1,omitempty"`
	Component2 *ComponentLoad `json:"component2,omitempty"`
	// Probes, when set, drives open-loop transport probes on the given
	// arrival schedule (live only; the simulator has no probe path).
	Probes *Probes `json:"probes,omitempty"`
}

// ComponentLoad is one component's workload rates, in events/sec.
type ComponentLoad struct {
	InternalRate  float64 `json:"internal_rate"`
	ExternalRate  float64 `json:"external_rate,omitempty"`
	LocalStepRate float64 `json:"local_step_rate,omitempty"`
}

// Probes configures the open-loop probe driver (see Gaps for the arrival
// schedules).
type Probes struct {
	// Schedule is one of "poisson", "ramp", "burst", "diurnal".
	Schedule string `json:"schedule"`
	// Rate is the offered probe rate in msgs/sec (poisson: the rate;
	// ramp: start; burst/diurnal: base).
	Rate float64 `json:"rate"`
	// Rate2 is the second rate for ramp (end) and burst (high
	// half-period); 0 picks 4x Rate.
	Rate2 float64 `json:"rate2,omitempty"`
	// Period is the burst/diurnal modulation period (default 1s).
	Period Duration `json:"period,omitempty"`
}

// Chaos schedules the run's faults (the internal/chaos grammar, with procs
// named).
type Chaos struct {
	Drop          float64          `json:"drop,omitempty"`
	Duplicate     float64          `json:"duplicate,omitempty"`
	Corrupt       float64          `json:"corrupt,omitempty"`
	MaxExtraDelay Duration         `json:"max_extra_delay,omitempty"`
	Partitions    []PartitionSpec  `json:"partitions,omitempty"`
	Crashes       []CrashSpec      `json:"crashes,omitempty"`
	FsyncStalls   []FsyncStallSpec `json:"fsync_stalls,omitempty"`
	DiskFaults    []DiskFaultSpec  `json:"disk_faults,omitempty"`
}

// PartitionSpec blocks From→To frames (both directions with Bidirectional)
// for [Start, End).
type PartitionSpec struct {
	From          string   `json:"from"`
	To            string   `json:"to"`
	Bidirectional bool     `json:"bidirectional,omitempty"`
	Start         Duration `json:"start"`
	End           Duration `json:"end"`
}

// CrashSpec kills Victim's node at At and (with positive Downtime) reboots
// it from durable storage Downtime later.
type CrashSpec struct {
	Victim   string   `json:"victim"`
	At       Duration `json:"at"`
	Downtime Duration `json:"downtime,omitempty"`
}

// FsyncStallSpec slows Victim's stable-log fsyncs by Stall during [Start,
// End).
type FsyncStallSpec struct {
	Victim string   `json:"victim"`
	Start  Duration `json:"start"`
	End    Duration `json:"end"`
	Stall  Duration `json:"stall"`
}

// DiskFaultSpec injects disk faults into Victim's stable-log IO during
// [Start, End): each probability draws per matching operation, or Persistent
// fails every write and fsync deterministically (a dead disk; live only —
// the simulator has no storage layer).
type DiskFaultSpec struct {
	Victim      string   `json:"victim"`
	Start       Duration `json:"start"`
	End         Duration `json:"end"`
	WriteErr    float64  `json:"write_err,omitempty"`
	TornWrite   float64  `json:"torn_write,omitempty"`
	SyncErr     float64  `json:"sync_err,omitempty"`
	ReadCorrupt float64  `json:"read_corrupt,omitempty"`
	Persistent  bool     `json:"persistent,omitempty"`
}

// Faults schedules software fault activations and shapes the acceptance
// test.
type Faults struct {
	// Software lists the elapsed times at which the active process's
	// design fault activates (state corruption the next acceptance test
	// can detect).
	Software []Duration `json:"software,omitempty"`
	// ATCoverage and ATFalseAlarm configure the acceptance-test oracle;
	// absent means the perfect test (coverage 1, false alarms 0).
	ATCoverage   *float64 `json:"at_coverage,omitempty"`
	ATFalseAlarm *float64 `json:"at_false_alarm,omitempty"`
}

// Expect lists the scenario's invariant expectations. Pointer fields
// distinguish "unchecked" from a zero-valued assertion. A check that is not
// meaningful in one execution path (probes in the simulator, replica
// convergence live) reports status "skip" there rather than failing.
type Expect struct {
	// NoFailure asserts the run ended without an unrecoverable condition.
	NoFailure *bool `json:"no_failure,omitempty"`
	// RecoveryLineClean asserts the final recovery line exists and passes
	// every consistency/recoverability/content invariant.
	RecoveryLineClean *bool `json:"recovery_line_clean,omitempty"`
	// MinStableRounds asserts every live node committed at least this
	// many stable checkpoint rounds (liveness under chaos).
	MinStableRounds *uint64 `json:"min_stable_rounds,omitempty"`
	// ReplicasConverged asserts the active and shadow states are equal
	// after quiescing (simulator only).
	ReplicasConverged *bool `json:"replicas_converged,omitempty"`
	// SWRecoveries asserts the exact number of completed software
	// recoveries.
	SWRecoveries *int `json:"sw_recoveries,omitempty"`
	// HWFaults asserts the exact number of hardware faults recovered.
	HWFaults *int `json:"hw_faults,omitempty"`
	// Active asserts which process embodies component 1's active side at
	// the end ("P1act", or "P1sdw" after a takeover).
	Active string `json:"active,omitempty"`
	// FaultKinds asserts each listed injected-fault kind actually fired:
	// "drop", "duplicate", "corrupt", "delay", "partition", "crc-catch",
	// "fsync-stall" (the last two live only).
	FaultKinds []string `json:"fault_kinds,omitempty"`
	// FaultCountersMatch asserts the obs fault counters agree exactly
	// with the injector's own stats (metrics-pipeline integrity).
	FaultCountersMatch *bool `json:"fault_counters_match,omitempty"`
	// CheckpointsRecorded asserts both stable commits and volatile
	// checkpoints show up in the metrics.
	CheckpointsRecorded *bool `json:"checkpoints_recorded,omitempty"`
	// MaxBlocking asserts every observed TB blocking period τ(b) fits
	// under the bound (read from the blocking histogram).
	MaxBlocking Duration `json:"max_blocking,omitempty"`
	// MinProbeRate asserts delivered probes per second clears the floor
	// (live only; requires workload.probes).
	MinProbeRate float64 `json:"min_probe_rate,omitempty"`
	// AllProbesDelivered asserts every sent probe was delivered after the
	// drain (live only; requires workload.probes).
	AllProbesDelivered *bool `json:"all_probes_delivered,omitempty"`
	// GossipFaninBounded asserts the worst per-node dissemination fan-in
	// (update copies received / updates broadcast anywhere) stayed positive
	// and within the epidemic's fanout·rounds bound — the O(fanout·rounds)
	// coordination cost the cluster claims instead of O(N). Requires
	// topology.cluster.
	GossipFaninBounded *bool `json:"gossip_fanin_bounded,omitempty"`
}

// Count returns the number of expectations the spec asserts.
func (e Expect) Count() int {
	n := 0
	for _, set := range []bool{
		e.NoFailure != nil, e.RecoveryLineClean != nil, e.MinStableRounds != nil,
		e.ReplicasConverged != nil, e.SWRecoveries != nil, e.HWFaults != nil,
		e.Active != "", len(e.FaultKinds) > 0, e.FaultCountersMatch != nil,
		e.CheckpointsRecorded != nil, e.MaxBlocking > 0, e.MinProbeRate > 0,
		e.AllProbesDelivered != nil, e.GossipFaninBounded != nil,
	} {
		if set {
			n++
		}
	}
	return n
}

// Execution modes.
const (
	ModeSim  = "sim"
	ModeLive = "live"
)

// Schedules lists the valid probe arrival schedules.
var Schedules = []string{"poisson", "ramp", "burst", "diurnal"}

// faultKinds lists the assertable injected-fault kinds.
var faultKinds = []string{
	"drop", "duplicate", "corrupt", "delay", "partition", "crc-catch", "fsync-stall",
	"disk-write-err", "disk-torn", "disk-sync-err", "disk-corrupt",
}

// Parse decodes and validates one scenario spec. Unknown fields are
// rejected, so a typoed expectation fails loudly instead of silently
// asserting nothing.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	// Trailing garbage after the spec object is a malformed file, not a
	// second document.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the spec as canonical indented JSON (the committed-corpus
// format). Parse(Encode(s)) reproduces s exactly.
func (s *Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// badRate rejects NaN, ±Inf and negative rates.
func badRate(r float64) bool { return math.IsNaN(r) || math.IsInf(r, 0) || r < 0 }

// Validate checks the spec end to end: grammar-level constraints here,
// protocol-level ones by building and validating the underlying configs.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: non-positive duration %v", s.Name, s.Duration.D())
	}
	if _, err := s.SchemeID(); err != nil {
		return err
	}
	for _, m := range s.Modes {
		if m != ModeSim && m != ModeLive {
			return fmt.Errorf("scenario %s: unknown mode %q (want %q or %q)", s.Name, m, ModeSim, ModeLive)
		}
	}
	if t := s.Topology.Transport; t != "" && t != "chan" && t != "tcp" {
		return fmt.Errorf("scenario %s: unknown transport %q (want \"chan\" or \"tcp\")", s.Name, t)
	}
	for _, d := range []Duration{
		s.Topology.CheckpointInterval, s.Topology.ClockMaxDeviation,
		s.Topology.MinDelay, s.Topology.MaxDelay,
	} {
		if d < 0 {
			return fmt.Errorf("scenario %s: negative topology duration %v", s.Name, d.D())
		}
	}
	if badRate(s.Topology.ClockDriftRate) {
		return fmt.Errorf("scenario %s: bad clock drift rate %v", s.Name, s.Topology.ClockDriftRate)
	}
	if err := s.validateCluster(); err != nil {
		return err
	}
	for name, c := range map[string]*ComponentLoad{"component1": s.Workload.Component1, "component2": s.Workload.Component2} {
		if c == nil {
			continue
		}
		if badRate(c.InternalRate) || badRate(c.ExternalRate) || badRate(c.LocalStepRate) {
			return fmt.Errorf("scenario %s: %s has a NaN/Inf/negative rate", s.Name, name)
		}
	}
	if p := s.Workload.Probes; p != nil {
		valid := false
		for _, sched := range Schedules {
			if p.Schedule == sched {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("scenario %s: unknown probe schedule %q", s.Name, p.Schedule)
		}
		if badRate(p.Rate) || p.Rate == 0 {
			return fmt.Errorf("scenario %s: probe rate must be positive and finite", s.Name)
		}
		if badRate(p.Rate2) {
			return fmt.Errorf("scenario %s: bad probe rate2 %v", s.Name, p.Rate2)
		}
		if p.Period < 0 {
			return fmt.Errorf("scenario %s: negative probe period", s.Name)
		}
	}
	// Scheduled one-shot events must fire inside the run: the simulator's
	// quiesce drains the whole event queue, so a crash or repair landing
	// after the nominal end would otherwise fire mid-drain (a repair even
	// restarts the checkpoint timers, and the drain never terminates).
	for _, t := range s.Faults.Software {
		if t < 0 {
			return fmt.Errorf("scenario %s: software fault scheduled before start", s.Name)
		}
		if t >= s.Duration {
			return fmt.Errorf("scenario %s: software fault at %v fires at/after the %v end", s.Name, t.D(), s.Duration.D())
		}
	}
	for i, c := range s.Chaos.Crashes {
		if c.At >= s.Duration {
			return fmt.Errorf("scenario %s: crash %d at %v fires at/after the %v end", s.Name, i, c.At.D(), s.Duration.D())
		}
		if c.Downtime > 0 && c.At+c.Downtime >= s.Duration {
			return fmt.Errorf("scenario %s: crash %d repair at %v fires at/after the %v end", s.Name, i, (c.At + c.Downtime).D(), s.Duration.D())
		}
	}
	for name, p := range map[string]*float64{"at_coverage": s.Faults.ATCoverage, "at_false_alarm": s.Faults.ATFalseAlarm} {
		if p != nil && (badRate(*p) || *p > 1) {
			return fmt.Errorf("scenario %s: %s outside [0,1]", s.Name, name)
		}
	}
	if _, err := s.ChaosSpec(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, k := range s.Expect.FaultKinds {
		valid := false
		for _, known := range faultKinds {
			if k == known {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("scenario %s: unknown fault kind %q in expectations", s.Name, k)
		}
	}
	if badRate(s.Expect.MinProbeRate) {
		return fmt.Errorf("scenario %s: bad min_probe_rate", s.Name)
	}
	if s.Expect.MaxBlocking < 0 {
		return fmt.Errorf("scenario %s: negative max_blocking", s.Name)
	}
	if s.Expect.Active != "" {
		resolve, err := s.procResolver()
		if err != nil {
			return err
		}
		if _, err := resolve(s.Expect.Active); err != nil {
			return fmt.Errorf("scenario %s: expect.active: %w", s.Name, err)
		}
	}
	if (s.Expect.MinProbeRate > 0 || s.Expect.AllProbesDelivered != nil) && s.Workload.Probes == nil {
		return fmt.Errorf("scenario %s: probe expectations need workload.probes", s.Name)
	}
	if s.Expect.GossipFaninBounded != nil && s.Topology.Cluster == nil {
		return fmt.Errorf("scenario %s: gossip_fanin_bounded needs topology.cluster", s.Name)
	}
	if s.Expect.Count() == 0 {
		return fmt.Errorf("scenario %s: no expectations — a scenario must assert at least one invariant", s.Name)
	}
	return nil
}

// schemeNames maps spec scheme strings to coord schemes. Only "coordinated"
// runs live; the rest are simulator baselines.
var schemeNames = map[string]coord.Scheme{
	"coordinated":   coord.Coordinated,
	"write-through": coord.WriteThrough,
	"naive":         coord.Naive,
	"tb-only":       coord.TBOnly,
	"mdcd-only":     coord.MDCDOnly,
}

// SchemeID resolves the scheme string (default "coordinated").
func (s *Spec) SchemeID() (coord.Scheme, error) {
	name := s.Scheme
	if name == "" {
		name = "coordinated"
	}
	sch, ok := schemeNames[name]
	if !ok {
		return 0, fmt.Errorf("scenario %s: unknown scheme %q", s.Name, s.Scheme)
	}
	return sch, nil
}

// SchemeName returns the resolved scheme string.
func (s *Spec) SchemeName() string {
	if s.Scheme == "" {
		return "coordinated"
	}
	return s.Scheme
}

// RunModes returns the execution paths the spec runs in, defaulting to both.
func (s *Spec) RunModes() []string {
	if len(s.Modes) == 0 {
		return []string{ModeSim, ModeLive}
	}
	return s.Modes
}

// HasMode reports whether the spec runs in the given mode.
func (s *Spec) HasMode(mode string) bool {
	for _, m := range s.RunModes() {
		if m == mode {
			return true
		}
	}
	return false
}

// parseProc resolves a spec process name.
func parseProc(name string) (msg.ProcID, error) {
	for _, p := range msg.Processes() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown process %q (want P1act, P1sdw or P2)", name)
}

// procResolver returns the proc-name resolver the spec's topology implies:
// the fixed three-process names, or the cluster lowering's node names
// ("C<i>", "C<i>s") when a cluster topology is declared.
func (s *Spec) procResolver() (func(string) (msg.ProcID, error), error) {
	if s.Topology.Cluster == nil {
		return parseProc, nil
	}
	asg, err := s.clusterAssignment()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return func(name string) (msg.ProcID, error) {
		if id, ok := asg.NodeByName(name); ok {
			return id, nil
		}
		return 0, fmt.Errorf("unknown cluster node %q (want \"C<i>\" or \"C<i>s\" within the topology)", name)
	}, nil
}

// ChaosSpec lowers the chaos grammar to the internal/chaos spec, validating
// process names and windows.
func (s *Spec) ChaosSpec() (chaos.Spec, error) {
	out := chaos.Spec{
		Seed:          s.Seed,
		Drop:          s.Chaos.Drop,
		Duplicate:     s.Chaos.Duplicate,
		Corrupt:       s.Chaos.Corrupt,
		MaxExtraDelay: s.Chaos.MaxExtraDelay.D(),
	}
	resolve, err := s.procResolver()
	if err != nil {
		return out, err
	}
	for _, p := range s.Chaos.Partitions {
		a, err := resolve(p.From)
		if err != nil {
			return out, err
		}
		b, err := resolve(p.To)
		if err != nil {
			return out, err
		}
		out.Partitions = append(out.Partitions, chaos.Partition{
			A: a, B: b, Bidirectional: p.Bidirectional,
			Start: p.Start.D(), End: p.End.D(),
		})
	}
	for _, c := range s.Chaos.Crashes {
		v, err := resolve(c.Victim)
		if err != nil {
			return out, err
		}
		out.Crashes = append(out.Crashes, chaos.Crash{Victim: v, At: c.At.D(), Downtime: c.Downtime.D()})
	}
	for _, f := range s.Chaos.FsyncStalls {
		v, err := resolve(f.Victim)
		if err != nil {
			return out, err
		}
		out.FsyncStalls = append(out.FsyncStalls, chaos.FsyncStall{
			Victim: v, Start: f.Start.D(), End: f.End.D(), Stall: f.Stall.D(),
		})
	}
	for _, f := range s.Chaos.DiskFaults {
		v, err := resolve(f.Victim)
		if err != nil {
			return out, err
		}
		out.DiskFaults = append(out.DiskFaults, chaos.DiskFault{
			Victim: v, Start: f.Start.D(), End: f.End.D(),
			WriteErr: f.WriteErr, TornWrite: f.TornWrite,
			SyncErr: f.SyncErr, ReadCorrupt: f.ReadCorrupt,
			Persistent: f.Persistent,
		})
	}
	if err := out.Validate(); err != nil {
		return out, err
	}
	return out, nil
}

// Test builds the acceptance test the spec configures.
func (s *Spec) Test() at.Test {
	if s.Faults.ATCoverage == nil && s.Faults.ATFalseAlarm == nil {
		return at.Perfect()
	}
	o := at.Oracle{Coverage: 1}
	if s.Faults.ATCoverage != nil {
		o.Coverage = *s.Faults.ATCoverage
	}
	if s.Faults.ATFalseAlarm != nil {
		o.FalseAlarm = *s.Faults.ATFalseAlarm
	}
	return o
}

// Engine defaults shared by both runners (the live stack's test-scale
// parameters, so a spec means the same thing in both worlds).
const (
	defaultCheckpointInterval = 100 * time.Millisecond
	defaultClockMaxDeviation  = 2 * time.Millisecond
	defaultClockDriftRate     = 1e-4
	defaultMinDelay           = 200 * time.Microsecond
	defaultMaxDelay           = 2 * time.Millisecond
)

// defaultComponentLoad is the per-component workload when the spec leaves a
// component unset.
var defaultComponentLoad = ComponentLoad{InternalRate: 50, ExternalRate: 5}

// Interval resolves the TB interval Δ.
func (t Topology) Interval() time.Duration {
	if t.CheckpointInterval > 0 {
		return t.CheckpointInterval.D()
	}
	return defaultCheckpointInterval
}

// Deviation resolves the clock synchronization bound δ.
func (t Topology) Deviation() time.Duration {
	if t.ClockMaxDeviation > 0 {
		return t.ClockMaxDeviation.D()
	}
	return defaultClockMaxDeviation
}

// Drift resolves the clock drift bound ρ.
func (t Topology) Drift() float64 {
	if t.ClockDriftRate > 0 {
		return t.ClockDriftRate
	}
	return defaultClockDriftRate
}

// Delays resolves the interconnect delay bounds.
func (t Topology) Delays() (tmin, tmax time.Duration) {
	if t.ZeroDelay {
		return 0, 0
	}
	tmin, tmax = defaultMinDelay, defaultMaxDelay
	if t.MinDelay > 0 {
		tmin = t.MinDelay.D()
	}
	if t.MaxDelay > 0 {
		tmax = t.MaxDelay.D()
	}
	return tmin, tmax
}

// Load resolves one component's workload.
func (w Workload) Load(c *ComponentLoad) app.Workload {
	if c == nil {
		c = &defaultComponentLoad
	}
	return app.Workload{
		InternalRate:  c.InternalRate,
		ExternalRate:  c.ExternalRate,
		LocalStepRate: c.LocalStepRate,
	}
}

// NeedsDurable reports whether the live run requires on-disk stable storage.
func (s *Spec) NeedsDurable() bool {
	return s.Topology.Durable || len(s.Chaos.Crashes) > 0 || len(s.Chaos.FsyncStalls) > 0 ||
		len(s.Chaos.DiskFaults) > 0
}

// NeedsTCP reports whether the live run requires the TCP transport.
func (s *Spec) NeedsTCP() bool {
	if s.Topology.Transport == "tcp" {
		return true
	}
	sp, err := s.ChaosSpec()
	return err == nil && sp.FrameFaults()
}
