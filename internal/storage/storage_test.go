package storage

import (
	"errors"
	"testing"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

func ckpt(step uint64) *checkpoint.Checkpoint {
	c := checkpoint.New(checkpoint.Stable, msg.P2)
	c.State.Step = step
	return c
}

func TestStableWriteLifecycle(t *testing.T) {
	var s Stable
	if _, ok, err := s.Latest(); ok || err != nil {
		t.Fatalf("empty stable store: ok=%v err=%v", ok, err)
	}
	if err := s.Begin(ckpt(1)); err != nil {
		t.Fatal(err)
	}
	if !s.InFlight() {
		t.Fatal("write should be in flight")
	}
	// Not yet durable.
	if _, ok, _ := s.Latest(); ok {
		t.Fatal("uncommitted write should not be visible")
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Latest()
	if err != nil || !ok || got.State.Step != 1 {
		t.Fatalf("Latest = %+v,%v,%v", got, ok, err)
	}
	if s.Commits() != 1 {
		t.Fatalf("Commits = %d", s.Commits())
	}
	if s.Bytes() == 0 {
		t.Fatal("committed checkpoint should occupy bytes")
	}
}

func TestStableReplaceSwapsContents(t *testing.T) {
	var s Stable
	if err := s.Begin(ckpt(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(ckpt(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Latest()
	if err != nil || got.State.Step != 2 {
		t.Fatalf("Latest after replace = %+v, %v", got, err)
	}
	if s.Replaces() != 1 {
		t.Fatalf("Replaces = %d, want 1", s.Replaces())
	}
}

func TestStableDoubleBeginRejected(t *testing.T) {
	var s Stable
	if err := s.Begin(ckpt(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(ckpt(2)); !errors.Is(err, ErrWriteInProgress) {
		t.Fatalf("second Begin: err = %v", err)
	}
}

func TestStableCommitWithoutBegin(t *testing.T) {
	var s Stable
	if err := s.Commit(1); !errors.Is(err, ErrNoWrite) {
		t.Fatalf("Commit: err = %v", err)
	}
	if err := s.Replace(ckpt(1)); !errors.Is(err, ErrNoWrite) {
		t.Fatalf("Replace: err = %v", err)
	}
}

func TestStableAbandonKeepsPrevious(t *testing.T) {
	var s Stable
	if err := s.Begin(ckpt(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(ckpt(2)); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	if s.InFlight() {
		t.Fatal("Abandon should clear in-flight state")
	}
	got, ok, err := s.Latest()
	if err != nil || !ok || got.State.Step != 1 {
		t.Fatalf("Latest after abandon = %+v,%v,%v — previous commit must survive", got, ok, err)
	}
	if err := s.Begin(ckpt(3)); err != nil {
		t.Fatalf("Begin after abandon: %v", err)
	}
}

func TestStableSurvivesContentsRoundTrip(t *testing.T) {
	var s Stable
	c := checkpoint.New(checkpoint.Stable, msg.P1Sdw)
	c.Ndc = 5
	c.Dirty = true
	c.SentTo[msg.P2] = 7
	c.Unacked = []msg.Message{{Kind: msg.Internal, From: msg.P1Sdw, To: msg.P2, SN: 7}}
	if err := s.Begin(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Latest()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got.Ndc != 5 || !got.Dirty || got.SentTo[msg.P2] != 7 || len(got.Unacked) != 1 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}
