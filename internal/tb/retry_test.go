package tb

import (
	"errors"
	"testing"

	"github.com/synergy-ft/synergy/internal/vtime"
)

// flakyBackend fails the first N commits, then succeeds. It models a
// transient EIO window on the durable log, and records the true time of
// every commit attempt.
type flakyBackend struct {
	failures int
	commits  int
	now      func() vtime.Time
	attempts []vtime.Time
}

var errInjectedEIO = errors.New("injected EIO")

func (b *flakyBackend) Commit(round uint64, data []byte, keepFrom uint64) error {
	b.attempts = append(b.attempts, b.now())
	if b.failures > 0 {
		b.failures--
		return errInjectedEIO
	}
	b.commits++
	return nil
}

func (b *flakyBackend) TruncateAbove(uint64) error { return nil }
func (b *flakyBackend) Close() error               { return nil }

// checkBackoff asserts the waits between consecutive commit attempts: Δ/32
// before the first retry, doubling for each further one.
func checkBackoff(t *testing.T, cfg Config, attempts []vtime.Time) {
	t.Helper()
	want := cfg.Interval / 32
	for i := 1; i < len(attempts); i++ {
		if got := attempts[i].Sub(attempts[i-1]); got != want {
			t.Fatalf("wait before retry %d = %v, want %v", i, got, want)
		}
		want *= 2
	}
}

// TestCommitRetryRecoversFromTransientFailure: the backend rejects the first
// two commit attempts; the checkpointer must retry inside the blocking period
// and land the round — the fault is invisible to the protocol apart from the
// retry counter.
func TestCommitRetryRecoversFromTransientFailure(t *testing.T) {
	cfg := cfgAdapted()
	host := &fakeHost{step: 4}
	eng, cp := newCP(t, cfg, host)
	be := &flakyBackend{failures: 2, now: eng.Now}
	cp.Stable.SetBackend(be)
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(12))
	if cp.Ndc() != 1 {
		t.Fatalf("Ndc = %d, want 1 (commit must succeed on retry)", cp.Ndc())
	}
	if be.commits != 1 {
		t.Fatalf("backend commits = %d, want 1", be.commits)
	}
	if got := cp.Stats().CommitRetries; got != 2 {
		t.Fatalf("CommitRetries = %d, want 2", got)
	}
	if len(be.attempts) != 3 {
		t.Fatalf("commit attempts = %d, want 3", len(be.attempts))
	}
	checkBackoff(t, cfg, be.attempts)
	if cp.InBlocking() {
		t.Fatal("blocking period must end after the successful retry")
	}
	if host.released != 1 {
		t.Fatalf("ReleaseHeld calls = %d, want 1", host.released)
	}
}

// TestCommitRetryExhaustionFailStops: a persistent backend failure must never
// be acked — after the retry budget is spent the OnCommitFailed hook fires,
// Ndc stays unchanged, held messages stay held, and the node remains blocked
// (fail-stop semantics: the hook's owner tears the node down). The waits
// double from Δ/32 up to the last retry's eight times that.
func TestCommitRetryExhaustionFailStops(t *testing.T) {
	cfg := cfgAdapted()
	host := &fakeHost{step: 4}
	eng, cp := newCP(t, cfg, host)
	be := &flakyBackend{failures: 1 << 30, now: eng.Now} // never recovers
	cp.Stable.SetBackend(be)
	var hookErrs []error
	cp.OnCommitFailed = func(err error) { hookErrs = append(hookErrs, err) }
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(30))
	if len(hookErrs) != 1 {
		t.Fatalf("OnCommitFailed fired %d times, want 1", len(hookErrs))
	}
	if !errors.Is(hookErrs[0], errInjectedEIO) {
		t.Fatalf("hook error = %v, want the backend's", hookErrs[0])
	}
	if cp.Ndc() != 0 {
		t.Fatalf("Ndc = %d, want 0: a round that never became durable must not be acked", cp.Ndc())
	}
	if got := cp.Stats().CommitRetries; got != commitRetryLimit {
		t.Fatalf("CommitRetries = %d, want the full budget of %d", got, commitRetryLimit)
	}
	if len(be.attempts) != commitRetryLimit+1 {
		t.Fatalf("commit attempts = %d, want %d", len(be.attempts), commitRetryLimit+1)
	}
	checkBackoff(t, cfg, be.attempts)
	if last := be.attempts[commitRetryLimit].Sub(be.attempts[commitRetryLimit-1]); last != cfg.Interval/4 {
		t.Fatalf("last retry waited %v, want the cap %v (eight times Δ/32)", last, cfg.Interval/4)
	}
	if !cp.InBlocking() {
		t.Fatal("node must stay blocked after exhaustion (teardown is the hook owner's job)")
	}
	if host.released != 0 {
		t.Fatalf("ReleaseHeld calls = %d, want 0: held messages must not flow", host.released)
	}
}

// TestCommitFailureWithoutHookAbandons: with no OnCommitFailed hook, a round
// whose retries all fail is abandoned and the node carries on un-durably.
func TestCommitFailureWithoutHookAbandons(t *testing.T) {
	host := &fakeHost{step: 4}
	eng, cp := newCP(t, cfgAdapted(), host)
	cp.Stable.SetBackend(&flakyBackend{failures: 1 << 30, now: eng.Now})
	cp.Start()
	eng.RunUntil(vtime.FromSeconds(16))
	if cp.Ndc() != 0 {
		t.Fatalf("Ndc = %d, want 0", cp.Ndc())
	}
	if got := cp.Stats().CommitRetries; got != commitRetryLimit {
		t.Fatalf("CommitRetries = %d, want %d", got, commitRetryLimit)
	}
	if cp.InBlocking() {
		t.Fatal("the blocking period must end after abandoning")
	}
	if cp.Stable.InFlight() {
		t.Fatal("the failed write must be abandoned")
	}
	if host.released != 1 {
		t.Fatalf("ReleaseHeld calls = %d, want 1 (abandon releases and moves on)", host.released)
	}
}
