package coord

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
)

// goldenProc is one process's end-of-run protocol counters.
type goldenProc struct {
	MDCD mdcd.Stats
	Ndc  uint64
	TB   goldenTB
}

// goldenTB is a checkpointer's counters as the goldens hold them: the
// commits and abort-and-replace adjustments are its stable store's.
type goldenTB struct {
	Commits, Replaces                          uint64
	SkippedBusy, CommitRetries, ResyncRequests uint64
	BlockingTotal                              time.Duration
}

// goldenRun is everything TestGoldenTranscripts pins about one run. Floats
// are compared by bit pattern.
type goldenRun struct {
	Steps       uint64
	Net         NetStats
	TraceEvents int
	// HWErrs has one flag per hardware-fault step of the schedule: whether
	// that step returned an error.
	HWErrs                                  [3]bool
	Failed                                  bool
	Active                                  msg.ProcID
	HWFaults, SWRecoveries                  int
	UnrecoverableSW, UnrecoverableHW        int
	RollbackN                               int
	RollbackMeanBits, RollbackMaxBits       uint64
	P1ActRollbackN, P1SdwRollbackN, P2RollN int
	Procs                                   [3]goldenProc // P1act, P1sdw, P2; zero where the scheme has none
}

// goldenDrive is the schedule every golden case runs: steady state, an
// instant crash-restart of P2's node, a fail-stop period on P1sdw's node with
// a real repair delay, a software fault in P1act followed — one second after
// the takeover, before the next checkpoint round — by a hardware fault, then
// a drained tail.
func goldenDrive(s *System) goldenRun {
	var g goldenRun
	s.Start()
	s.RunFor(65)
	g.HWErrs[0] = s.InjectHardwareFault(3) != nil
	s.RunFor(40)
	s.CrashNode(2)
	s.RunFor(25)
	g.HWErrs[1] = s.RepairNode(2) != nil
	s.RunFor(35)
	s.ActivateSoftwareFault()
	for i := 0; i < 120 && s.ActiveC1() == msg.P1Act; i++ {
		s.RunFor(0.5)
	}
	s.RunFor(1)
	g.HWErrs[2] = s.InjectHardwareFault(3) != nil
	s.RunFor(60)
	s.Quiesce()

	g.Steps = s.Engine().Steps()
	g.Net = s.sim.Counters()
	g.TraceEvents = len(s.Recorder().Events())
	g.Failed, _ = s.Failed()
	g.Active = s.ActiveC1()
	m := s.Metrics()
	g.HWFaults, g.SWRecoveries = m.HWFaults, m.SWRecoveries
	g.UnrecoverableSW, g.UnrecoverableHW = m.UnrecoverableSW, m.UnrecoverableHW
	g.RollbackN = m.RollbackDistance.N()
	g.RollbackMeanBits = math.Float64bits(m.RollbackDistance.Mean())
	g.RollbackMaxBits = math.Float64bits(m.RollbackDistance.Max())
	n := func(id msg.ProcID) int {
		if sm := m.RollbackByProc[id]; sm != nil {
			return sm.N()
		}
		return 0
	}
	g.P1ActRollbackN, g.P1SdwRollbackN, g.P2RollN = n(msg.P1Act), n(msg.P1Sdw), n(msg.P2)
	for i, id := range msg.Processes() {
		if p := s.Process(id); p != nil {
			st := p.Stats()
			// The goldens predate the volatile-checkpoint and dirty-bit
			// counts in Stats.
			st.Type1, st.Type2, st.Pseudo, st.DirtySet, st.DirtyCleared = 0, 0, 0, 0, 0
			g.Procs[i].MDCD = st
		}
		if cp := s.Checkpointer(id); cp != nil {
			g.Procs[i].Ndc = cp.Ndc()
			st := cp.Stats()
			g.Procs[i].TB = goldenTB{Commits: cp.Stable.Commits(), Replaces: cp.Stable.Replaces(),
				SkippedBusy: st.SkippedBusy, CommitRetries: st.CommitRetries, ResyncRequests: st.ResyncRequests,
				BlockingTotal: st.BlockingTotal}
		}
	}
	return g
}

// goldenConfig is the configuration of a golden case: the experiment defaults
// with frequent acceptance tests and a trace.
func goldenConfig(scheme Scheme, seed int64) Config {
	cfg := DefaultConfig(scheme, seed)
	cfg.Workload1.ExternalRate = 0.5
	cfg.Workload2.ExternalRate = 0.2
	cfg.TraceEnabled = true
	return cfg
}

// TestGoldenTranscripts is the three-process assembly's equivalence oracle.
// Every expected value below — the event engine's step count, the
// interconnect's counters, the trace length, the outcome metrics and each
// process's MDCD and TB counters — was captured at commit 0d0a50b, before
// coord.System was rewritten over the runtime seam it now shares with the
// live middleware, and is never edited: the simulator is
// transcript-deterministic, so a refactor that keeps behaviour keeps these
// numbers exactly, and one that changes them changed behaviour.
func TestGoldenTranscripts(t *testing.T) {
	cases := []struct {
		name   string
		scheme Scheme
		seed   int64
		want   goldenRun
	}{
		{name: "coordinated", scheme: Coordinated, seed: 1, want: goldenCoordinated},
		{name: "write-through", scheme: WriteThrough, seed: 2, want: goldenWriteThrough},
		{name: "naive", scheme: Naive, seed: 3, want: goldenNaive},
		{name: "tb-only", scheme: TBOnly, seed: 4, want: goldenTBOnly},
		{name: "mdcd-only", scheme: MDCDOnly, seed: 5, want: goldenMDCDOnly},
		{name: "mdcd-only-original", scheme: OriginalMDCD, seed: 6, want: goldenMDCDOriginal},
		{name: "content-only", scheme: ContentOnly, seed: 7, want: goldenContentOnly},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(goldenConfig(tc.scheme, tc.seed))
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			if got := goldenDrive(s); got != tc.want {
				t.Errorf("run diverged from the parent commit:\n got %s\nwant %s", literal(got), literal(tc.want))
			}
		})
	}
}

// literal prints a goldenRun as the Go literal the tables below hold.
func literal(g goldenRun) string { return fmt.Sprintf("%#v", g) }

// The expected runs, captured at 0d0a50b (see TestGoldenTranscripts).
var (
	goldenCoordinated = goldenRun{Steps: 0x7cd, Net: NetStats{Sent: 0x5c5, Delivered: 0x508, DroppedDown: 0x26, Flushed: 0x0},
		TraceEvents: 2465, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x2, HWFaults: 3, SWRecoveries: 1, UnrecoverableSW: 0, UnrecoverableHW: 0,
		RollbackN: 8, RollbackMeanBits: 0x4030ca67a9ce564b, RollbackMaxBits: 0x40417a92269bfeac,
		P1ActRollbackN: 2, P1SdwRollbackN: 3, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x51, ATsFailed: 0x1, InternalSent: 0x9f, ExternalSent: 0x50, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0xb, TB: goldenTB{Commits: 0xd, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 208200000}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x38, ExternalSent: 0x1f, Suppressed: 0xc8, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x10, TB: goldenTB{Commits: 0x10, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 148600000}},
			{MDCD: mdcd.Stats{ATsRun: 0xe, ATsFailed: 0x0, InternalSent: 0xce, ExternalSent: 0x28, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x10, TB: goldenTB{Commits: 0x12, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 267600000}}}}
	goldenWriteThrough = goldenRun{Steps: 0x782, Net: NetStats{Sent: 0x5e1, Delivered: 0x516, DroppedDown: 0x29, Flushed: 0x0},
		TraceEvents: 2234, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x2, HWFaults: 3, SWRecoveries: 1, UnrecoverableSW: 0, UnrecoverableHW: 0,
		RollbackN: 8, RollbackMeanBits: 0x4020d38c76e9c9e6, RollbackMaxBits: 0x403a22504f78b924,
		P1ActRollbackN: 2, P1SdwRollbackN: 3, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x55, ATsFailed: 0x1, InternalSent: 0x91, ExternalSent: 0x54, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0xe, TB: goldenTB{Commits: 0xe, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x3f, ExternalSent: 0x1c, Suppressed: 0xc2, Duplicates: 0x2, RejectedNdc: 0x0, RejectedStale: 0x5, Held: 0x0},
				Ndc: 0x1d, TB: goldenTB{Commits: 0x1d, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0xe, ATsFailed: 0x0, InternalSent: 0xcd, ExternalSent: 0x32, Suppressed: 0x0, Duplicates: 0x22, RejectedNdc: 0x0, RejectedStale: 0x5, Held: 0x0},
				Ndc: 0x3e, TB: goldenTB{Commits: 0x3e, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}}}}
	goldenNaive = goldenRun{Steps: 0x879, Net: NetStats{Sent: 0x649, Delivered: 0x58f, DroppedDown: 0x28, Flushed: 0x0},
		TraceEvents: 2509, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x2, HWFaults: 3, SWRecoveries: 1, UnrecoverableSW: 0, UnrecoverableHW: 0,
		RollbackN: 8, RollbackMeanBits: 0x402dc08ed6a150b6, RollbackMaxBits: 0x403e00744a997018,
		P1ActRollbackN: 2, P1SdwRollbackN: 3, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x4d, ATsFailed: 0x1, InternalSent: 0x8b, ExternalSent: 0x4c, Suppressed: 0x0, Duplicates: 0x5, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0xb, TB: goldenTB{Commits: 0xd, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 73000000}},
			{MDCD: mdcd.Stats{ATsRun: 0x1, ATsFailed: 0x0, InternalSent: 0x4b, ExternalSent: 0x27, Suppressed: 0xb7, Duplicates: 0x7, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x10, TB: goldenTB{Commits: 0x10, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 88000000}},
			{MDCD: mdcd.Stats{ATsRun: 0xc, ATsFailed: 0x0, InternalSent: 0xf6, ExternalSent: 0x1f, Suppressed: 0x0, Duplicates: 0x7, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x10, TB: goldenTB{Commits: 0x12, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 106000000}}}}
	goldenTBOnly = goldenRun{Steps: 0x772, Net: NetStats{Sent: 0x4fc, Delivered: 0x424, DroppedDown: 0x0, Flushed: 0x0},
		TraceEvents: 1476, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x1, HWFaults: 3, SWRecoveries: 0, UnrecoverableSW: 0, UnrecoverableHW: 0,
		RollbackN: 6, RollbackMeanBits: 0x401bfe78ab1242a8, RollbackMaxBits: 0x4023ff9a34ec6840,
		P1ActRollbackN: 3, P1SdwRollbackN: 0, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x112, ExternalSent: 0x94, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x18, TB: goldenTB{Commits: 0x18, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 151200000}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x0, ExternalSent: 0x0, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x100, ExternalSent: 0x44, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x1},
				Ndc: 0x18, TB: goldenTB{Commits: 0x18, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 151200000}}}}
	goldenMDCDOnly = goldenRun{Steps: 0x7ef, Net: NetStats{Sent: 0x632, Delivered: 0x55e, DroppedDown: 0x2e, Flushed: 0x0},
		TraceEvents: 2387, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x2, HWFaults: 3, SWRecoveries: 1, UnrecoverableSW: 0, UnrecoverableHW: 8,
		RollbackN: 8, RollbackMeanBits: 0x405cb00000000000, RollbackMaxBits: 0x4064d00000000000,
		P1ActRollbackN: 2, P1SdwRollbackN: 3, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x57, ATsFailed: 0x1, InternalSent: 0x95, ExternalSent: 0x56, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x3e, ExternalSent: 0x1c, Suppressed: 0xc4, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0x14, ATsFailed: 0x0, InternalSent: 0xe6, ExternalSent: 0x34, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}}}}
	goldenMDCDOriginal = goldenRun{Steps: 0x7f1, Net: NetStats{Sent: 0x62d, Delivered: 0x550, DroppedDown: 0x2e, Flushed: 0x0},
		TraceEvents: 2046, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x2, HWFaults: 3, SWRecoveries: 1, UnrecoverableSW: 0, UnrecoverableHW: 8,
		RollbackN: 8, RollbackMeanBits: 0x405cb00000000000, RollbackMaxBits: 0x4064d00000000000,
		P1ActRollbackN: 2, P1SdwRollbackN: 3, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x5e, ATsFailed: 0x1, InternalSent: 0xa4, ExternalSent: 0x5d, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x30, ExternalSent: 0x22, Suppressed: 0xd9, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}},
			{MDCD: mdcd.Stats{ATsRun: 0x8, ATsFailed: 0x0, InternalSent: 0xec, ExternalSent: 0x30, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x0, TB: goldenTB{Commits: 0x0, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 0}}}}
	goldenContentOnly = goldenRun{Steps: 0x857, Net: NetStats{Sent: 0x63f, Delivered: 0x55d, DroppedDown: 0x2d, Flushed: 0x0},
		TraceEvents: 2613, HWErrs: [3]bool{false, false, false},
		Failed: false, Active: 0x2, HWFaults: 3, SWRecoveries: 1, UnrecoverableSW: 0, UnrecoverableHW: 0,
		RollbackN: 8, RollbackMeanBits: 0x402dd2d68035ab99, RollbackMaxBits: 0x403e2627cda46321,
		P1ActRollbackN: 2, P1SdwRollbackN: 3, P2RollN: 3,
		Procs: [3]goldenProc{
			{MDCD: mdcd.Stats{ATsRun: 0x5e, ATsFailed: 0x1, InternalSent: 0x97, ExternalSent: 0x5d, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0xb, TB: goldenTB{Commits: 0xd, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 66800000}},
			{MDCD: mdcd.Stats{ATsRun: 0x0, ATsFailed: 0x0, InternalSent: 0x3c, ExternalSent: 0x20, Suppressed: 0xd2, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x10, TB: goldenTB{Commits: 0x10, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 88000000}},
			{MDCD: mdcd.Stats{ATsRun: 0x11, ATsFailed: 0x0, InternalSent: 0xe3, ExternalSent: 0x38, Suppressed: 0x0, Duplicates: 0x0, RejectedNdc: 0x0, RejectedStale: 0x0, Held: 0x0},
				Ndc: 0x10, TB: goldenTB{Commits: 0x12, Replaces: 0x0, SkippedBusy: 0x0, CommitRetries: 0x0, ResyncRequests: 0x0, BlockingTotal: 99800000}}}}
)
