package tb

import (
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// simRuntime adapts the discrete-event engine to the Runtime interface.
type simRuntime struct{ eng *sim.Engine }

func (r simRuntime) Now() vtime.Time { return r.eng.Now() }

func (r simRuntime) After(d time.Duration, fn func()) seam.Timer {
	return seam.Timer{Event: r.eng.After(d, fn)}
}

func (r simRuntime) Cancel(t seam.Timer) { r.eng.Cancel(t.Event) }

// fakeHost is a controllable Host.
type fakeHost struct {
	dirty    bool
	step     uint64
	volatile *checkpoint.Checkpoint
	released int
	// unacked mirrors the real MDCD process's stable Snapshot: it embeds
	// the live unacknowledged set at capture time.
	unacked func() []msg.Message
}

var _ Host = (*fakeHost)(nil)

func (h *fakeHost) EffectiveDirty() bool { return h.dirty }

func (h *fakeHost) Snapshot(kind checkpoint.Kind) *checkpoint.Checkpoint {
	c := checkpoint.New(kind, msg.P2)
	c.State.Step = h.step
	c.Dirty = h.dirty
	if h.unacked != nil {
		c.Unacked = h.unacked()
	}
	return c
}

func (h *fakeHost) LatestVolatile() (*checkpoint.Checkpoint, bool) {
	if h.volatile == nil {
		return nil, false
	}
	return h.volatile.Clone(), true
}

// StableContents builds the record the parent host interface handed over:
// the Snapshot, or the volatile copy relabelled stable and clean.
func (h *fakeHost) StableContents(fromVolatile bool) (checkpoint.Encoder, bool) {
	if !fromVolatile {
		return h.Snapshot(checkpoint.Stable), true
	}
	v, ok := h.LatestVolatile()
	if !ok {
		return nil, false
	}
	v.Kind, v.Dirty = checkpoint.Stable, false
	return v, true
}

func (h *fakeHost) ReleaseHeld() { h.released++ }

func cfgAdapted() Config {
	return Config{
		Variant:  Adapted,
		Interval: 10 * time.Second,
		Clock:    vtime.ClockConfig{MaxDeviation: 10 * time.Millisecond, DriftRate: 1e-5},
		MinDelay: time.Millisecond,
		MaxDelay: 50 * time.Millisecond,
	}
}

func newCP(t *testing.T, cfg Config, host Host) (*sim.Engine, *Checkpointer) {
	t.Helper()
	eng := sim.New(1)
	clock := vtime.NewClock(cfg.Clock, nil)
	cp, err := NewCheckpointer(msg.P2, cfg, clock, simRuntime{eng: eng}, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fh, ok := host.(*fakeHost); ok && fh.unacked == nil {
		fh.unacked = func() []msg.Message { return cp.UnackedAt(Mark{}) }
	}
	return eng, cp
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{name: "ok", mutate: func(*Config) {}},
		{name: "bad variant", mutate: func(c *Config) { c.Variant = 0 }, wantErr: true},
		{name: "zero interval", mutate: func(c *Config) { c.Interval = 0 }, wantErr: true},
		{name: "bad clock", mutate: func(c *Config) { c.Clock.DriftRate = -1 }, wantErr: true},
		{name: "bad delays", mutate: func(c *Config) { c.MinDelay = 2; c.MaxDelay = 1 }, wantErr: true},
		{name: "blocking exceeds interval", mutate: func(c *Config) { c.MaxDelay = 11 * time.Second }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := cfgAdapted()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestBlockingPeriodFormula(t *testing.T) {
	cfg := cfgAdapted()
	elapsed := 100 * time.Second
	skew := vtime.WorstCaseSkew(cfg.Clock, elapsed)
	tests := []struct {
		name  string
		cfg   Config
		dirty bool
		want  time.Duration
	}{
		{name: "adapted dirty", cfg: cfg, dirty: true, want: skew + cfg.MaxDelay},
		{name: "adapted clean", cfg: cfg, dirty: false, want: skew - cfg.MinDelay},
		{name: "original ignores dirty", cfg: func() Config { c := cfg; c.Variant = Original; return c }(), dirty: true, want: skew - cfg.MinDelay},
		{name: "disabled", cfg: func() Config { c := cfg; c.DisableBlocking = true; return c }(), dirty: true, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.cfg.BlockingPeriod(tt.dirty, elapsed); got != tt.want {
				t.Fatalf("BlockingPeriod = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBlockingPeriodNeverNegative(t *testing.T) {
	cfg := cfgAdapted()
	cfg.MinDelay = time.Second
	cfg.MaxDelay = time.Second
	if got := cfg.BlockingPeriod(false, 0); got != 0 {
		t.Fatalf("BlockingPeriod = %v, want floor at 0", got)
	}
}

func TestCleanProcessCommitsCurrentState(t *testing.T) {
	host := &fakeHost{step: 42}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(25))
	if cp.Ndc() != 2 {
		t.Fatalf("Ndc = %d, want 2 after 25s with Δ=10s", cp.Ndc())
	}
	got, err := cp.LatestStable()
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Step != 42 || got.Dirty {
		t.Fatalf("stable contents = step %d dirty %v", got.State.Step, got.Dirty)
	}
	if host.released != 2 {
		t.Fatalf("ReleaseHeld calls = %d, want 2", host.released)
	}
}

func TestDirtyProcessCommitsVolatileCheckpoint(t *testing.T) {
	vol := checkpoint.New(checkpoint.Type1, msg.P2)
	vol.State.Step = 7
	host := &fakeHost{step: 99, dirty: true, volatile: vol}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12))
	got, err := cp.LatestStable()
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Step != 7 {
		t.Fatalf("stable step = %d, want the volatile checkpoint's 7", got.State.Step)
	}
	if got.Dirty {
		t.Fatal("copied volatile contents are a clean state")
	}
	if got.Kind != checkpoint.Stable {
		t.Fatalf("kind = %v, want stable", got.Kind)
	}
}

func TestOriginalVariantSavesCurrentStateEvenWhenDirty(t *testing.T) {
	cfg := cfgAdapted()
	cfg.Variant = Original
	vol := checkpoint.New(checkpoint.Type1, msg.P2)
	vol.State.Step = 7
	host := &fakeHost{step: 99, dirty: true, volatile: vol}
	eng, cp := newCP(t, cfg, host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12))
	got, err := cp.LatestStable()
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Step != 99 || !got.Dirty {
		t.Fatalf("original variant stable = step %d dirty %v, want current dirty state", got.State.Step, got.Dirty)
	}
}

func TestDirtyFlipDuringBlockingReplacesContents(t *testing.T) {
	vol := checkpoint.New(checkpoint.Type1, msg.P2)
	vol.State.Step = 7
	host := &fakeHost{step: 99, dirty: true, volatile: vol}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()

	// Run just past the timer expiry (10s) into the blocking period.
	eng.RunUntil(vtime.FromSeconds(10).Add(time.Millisecond))
	if !cp.InBlocking() {
		t.Fatal("should be in a blocking period")
	}
	// A passed-AT arrives: the MDCD layer clears the dirty bit and fires
	// the hook.
	host.dirty = false
	cp.NotifyDirtyChanged(false)
	eng.RunUntil(vtime.FromSeconds(12))

	got, err := cp.LatestStable()
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Step != 99 {
		t.Fatalf("stable step = %d, want replaced current state 99", got.State.Step)
	}
	if cp.Stable.Replaces() != 1 {
		t.Fatalf("Replaces = %d, want 1", cp.Stable.Replaces())
	}
}

func TestOriginalVariantIgnoresDirtyFlip(t *testing.T) {
	cfg := cfgAdapted()
	cfg.Variant = Original
	host := &fakeHost{step: 99, dirty: true}
	eng, cp := newCP(t, cfg, host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(10).Add(time.Millisecond))
	host.dirty = false
	cp.NotifyDirtyChanged(false)
	if cp.Stable.Replaces() != 0 {
		t.Fatal("original variant must not adjust in-flight writes")
	}
}

func TestNoReplaceWhenBitMatchesExpectation(t *testing.T) {
	host := &fakeHost{step: 1, dirty: false}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(10).Add(time.Microsecond))
	cp.NotifyDirtyChanged(false) // no transition
	if cp.Stable.Replaces() != 0 {
		t.Fatal("matching bit must not replace")
	}
}

func TestUnackedLifecycle(t *testing.T) {
	host := &fakeHost{}
	eng, cp := newCP(t, cfgAdapted(), host)
	m1 := msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, SN: 1, ChanSeq: 1}
	m2 := msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Sdw, SN: 1, ChanSeq: 1}
	ext := msg.Message{Kind: msg.External, From: msg.P2, To: msg.Device, SN: 2, ChanSeq: 1}
	cp.OnSend(m1)
	cp.OnSend(m2)
	cp.OnSend(ext) // externals are not tracked
	if cp.UnackedLen() != 2 {
		t.Fatalf("UnackedLen = %d, want 2", cp.UnackedLen())
	}
	cp.OnAck(msg.Message{Kind: msg.Ack, From: msg.P1Act, To: msg.P2, AckSN: 1})
	if cp.UnackedLen() != 1 {
		t.Fatalf("UnackedLen after ack = %d, want 1", cp.UnackedLen())
	}
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12))
	got, err := cp.LatestStable()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Unacked) != 1 || got.Unacked[0].To != msg.P1Sdw {
		t.Fatalf("checkpoint unacked = %+v", got.Unacked)
	}
}

func TestPrepareRecoveryRestoresUnackedAndAbandonsWrite(t *testing.T) {
	host := &fakeHost{step: 5}
	eng, cp := newCP(t, cfgAdapted(), host)
	m := msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, SN: 1, ChanSeq: 1}
	cp.OnSend(m)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12)) // checkpoint 1 committed, unacked inside
	cp.OnAck(msg.Message{Kind: msg.Ack, From: msg.P1Act, AckSN: 1})
	if cp.UnackedLen() != 0 {
		t.Fatal("setup: ack should clear live set")
	}
	// Crash mid-blocking of checkpoint 2.
	eng.RunUntil(vtime.FromSeconds(20).Add(time.Millisecond))
	if !cp.Stable.InFlight() {
		t.Fatal("setup: write should be in flight")
	}
	got, err := cp.PrepareRecoveryAt(cp.Ndc())
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Step != 5 {
		t.Fatalf("recovered step = %d", got.State.Step)
	}
	if cp.UnackedLen() != 1 {
		t.Fatalf("unacked restored = %d, want 1 (from checkpoint)", cp.UnackedLen())
	}
	if cp.Stable.InFlight() {
		t.Fatal("in-flight write must be abandoned")
	}
	if cp.InBlocking() {
		t.Fatal("blocking must end on recovery")
	}
}

func TestPrepareRecoveryWithoutCheckpointFails(t *testing.T) {
	host := &fakeHost{}
	_, cp := newCP(t, cfgAdapted(), host)
	if _, err := cp.PrepareRecoveryAt(0); err == nil {
		t.Fatal("recovery at round 0 must error")
	}
}

func TestRecoveryAtPreviousRound(t *testing.T) {
	host := &fakeHost{step: 1}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12))
	host.step = 2
	eng.RunUntil(vtime.FromSeconds(22))
	if cp.Ndc() != 2 {
		t.Fatalf("setup: Ndc = %d", cp.Ndc())
	}
	// Roll back to round 1 (some peer had not committed round 2).
	got, err := cp.PrepareRecoveryAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Step != 1 {
		t.Fatalf("round-1 step = %d, want 1", got.State.Step)
	}
	if cp.Ndc() != 1 {
		t.Fatalf("Ndc after rewind = %d, want 1", cp.Ndc())
	}
	// The discarded round 2 is gone; the next commit is a new round 2.
	cp.Start()
	eng.RunUntil(eng.Now().Add(11 * time.Second))
	if cp.Ndc() != 2 {
		t.Fatalf("Ndc after restart = %d, want 2", cp.Ndc())
	}
}

func TestCommitImmediate(t *testing.T) {
	host := &fakeHost{step: 9}
	_, cp := newCP(t, cfgAdapted(), host)
	if err := cp.CommitImmediate(host.Snapshot(checkpoint.Stable)); err != nil {
		t.Fatal(err)
	}
	if cp.Ndc() != 1 {
		t.Fatalf("Ndc = %d", cp.Ndc())
	}
	got, err := cp.LatestStable()
	if err != nil || got.State.Step != 9 {
		t.Fatalf("LatestStable = %+v, %v", got, err)
	}
}

// TestResyncRequestedWhenSkewGrows: a checkpoint asks for a timer
// resynchronization exactly when the worst-case skew over the intervals since
// the last one, counting the interval it completes, first exceeds a quarter
// of Δ.
func TestResyncRequestedWhenSkewGrows(t *testing.T) {
	cfg := cfgAdapted()
	cfg.Clock = vtime.ClockConfig{MaxDeviation: time.Millisecond, DriftRate: 1e-2}
	// The skew after k intervals is 1ms + 0.2s·k: the first k past Δ/4.
	k := uint64(1)
	for vtime.WorstCaseSkew(cfg.Clock, time.Duration(k)*cfg.Interval) <= cfg.Interval/4 {
		k++
	}
	host := &fakeHost{}
	eng, cp := newCP(t, cfg, host)
	var at []uint64 // Ndc at each request
	cp.OnResyncRequest = func() {
		at = append(at, cp.Ndc())
		cp.Clock().Resynchronize(eng.Now(), nil)
		cp.NoteResynced()
	}
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(float64(3*k) * cfg.Interval.Seconds()))
	if len(at) < 2 {
		t.Fatalf("resync requests at Ndc %v, want at least two", at)
	}
	// The round being established is the k-th interval, so each request
	// comes k−1 commits after the resynchronization before it.
	if at[0] != k-1 || at[1]-at[0] != k-1 {
		t.Fatalf("resync requests at Ndc %v, want every %d commits (skew first past Δ/4 after %d intervals)", at, k-1, k)
	}
	if cp.Stats().ResyncRequests != uint64(len(at)) {
		t.Fatalf("stats mismatch: %d vs %d", cp.Stats().ResyncRequests, len(at))
	}
}

func TestStopCancelsTimers(t *testing.T) {
	host := &fakeHost{}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Start()
	cp.Stop()
	eng.RunUntil(vtime.FromSeconds(50))
	if cp.Ndc() != 0 {
		t.Fatalf("stopped checkpointer committed %d checkpoints", cp.Ndc())
	}
}

func TestDropUnacked(t *testing.T) {
	host := &fakeHost{}
	_, cp := newCP(t, cfgAdapted(), host)
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 1})
	cp.OnSend(msg.Message{Kind: msg.Internal, From: msg.P2, To: msg.P1Sdw, ChanSeq: 1})
	cp.DropUnacked(msg.P1Act)
	if cp.UnackedLen() != 1 {
		t.Fatalf("UnackedLen = %d, want 1", cp.UnackedLen())
	}
}

func TestVariantString(t *testing.T) {
	if Original.String() != "original" || Adapted.String() != "adapted" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() != "variant(9)" {
		t.Fatal("unknown variant name wrong")
	}
}
