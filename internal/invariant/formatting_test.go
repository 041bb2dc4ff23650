package invariant

import (
	"fmt"
	"strings"
	"testing"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// TestViolationFormatting pins the exact rendering of every violation kind:
// downstream tooling (experiment reports, the lint/CI gate's failure output)
// greps these strings, so format drift is a breaking change.
func TestViolationFormatting(t *testing.T) {
	cases := []struct {
		v    Violation
		want string
	}{
		{
			v:    Violation{Kind: OrphanMessage, Proc: msg.P2, Detail: "reflects 5 messages from P1act but P1act reflects only 3 sent"},
			want: "orphan-message@P2: reflects 5 messages from P1act but P1act reflects only 3 sent",
		},
		{
			v:    Violation{Kind: LostMessage, Proc: msg.P1Act, Detail: "message #4 to P2 is reflected as sent, not received, and absent from the unacknowledged log"},
			want: "lost-message@P1act: message #4 to P2 is reflected as sent, not received, and absent from the unacknowledged log",
		},
		{
			v:    Violation{Kind: DirtyStableContent, Proc: msg.P1Act, Detail: "stable checkpoint captures a potentially contaminated state"},
			want: "dirty-stable-content@P1act: stable checkpoint captures a potentially contaminated state",
		},
		{
			v:    Violation{Kind: CorruptedStableContent, Proc: msg.P1Sdw, Detail: "stable checkpoint captures a ground-truth corrupted state"},
			want: "corrupted-stable-content@P1sdw: stable checkpoint captures a ground-truth corrupted state",
		},
		{
			v:    Violation{Kind: Kind(42), Proc: msg.P2, Detail: "future kind"},
			want: "violation(42)@P2: future kind",
		},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("Violation.String() = %q, want %q", got, tc.want)
		}
	}
}

// TestDirtyStableContentMixedLine builds the Figure 4(a) strawman: the naive
// MDCD+TB combination checkpoints whatever state is current when the timer
// fires, so P1act's stable checkpoint captures a potentially contaminated
// (and, per the oracle, actually corrupted) state while its peers save clean
// ones. The mixed line must report exactly the dirty and corrupted breaches,
// attributed to P1act alone — message consistency is intact, so no channel
// violations may appear alongside them.
func TestDirtyStableContentMixedLine(t *testing.T) {
	mk := func(p msg.ProcID) *checkpoint.Checkpoint {
		return checkpoint.New(checkpoint.Stable, p)
	}
	act, sdw, p2 := mk(msg.P1Act), mk(msg.P1Sdw), mk(msg.P2)
	// Consistent counters: act→P2 3 sent/received, P2→{act,sdw} 2/2.
	act.SentTo[msg.P2] = 3
	p2.RecvFrom[msg.P1Act] = 3
	p2.SentTo[msg.P1Act] = 2
	p2.SentTo[msg.P1Sdw] = 2
	act.RecvFrom[msg.P2] = 2
	sdw.RecvFrom[msg.P2] = 2
	// The strawman saved P1act mid-contamination; ground truth agrees.
	act.Dirty = true
	act.State.Corrupted = true

	l := Line{
		Ckpts:    map[msg.ProcID]*checkpoint.Checkpoint{msg.P1Act: act, msg.P1Sdw: sdw, msg.P2: p2},
		Topology: threeProcess(msg.P1Act),
	}
	vs := l.Check()

	if len(vs) != 2 {
		t.Fatalf("violations = %v, want exactly dirty+corrupted content breaches", vs)
	}
	if Count(vs, DirtyStableContent) != 1 || Count(vs, CorruptedStableContent) != 1 {
		t.Fatalf("violations = %v, want one DirtyStableContent and one CorruptedStableContent", vs)
	}
	if Count(vs, OrphanMessage) != 0 || Count(vs, LostMessage) != 0 {
		t.Fatalf("channel violations on a message-consistent line: %v", vs)
	}
	for _, v := range vs {
		if v.Proc != msg.P1Act {
			t.Errorf("violation %v attributed to %v, want P1act", v, v.Proc)
		}
		switch v.Kind {
		case DirtyStableContent:
			if v.Detail != "stable checkpoint captures a potentially contaminated state" {
				t.Errorf("dirty detail = %q", v.Detail)
			}
			if got := v.String(); !strings.HasPrefix(got, "dirty-stable-content@P1act: ") {
				t.Errorf("dirty String = %q", got)
			}
		case CorruptedStableContent:
			if v.Detail != "stable checkpoint captures a ground-truth corrupted state" {
				t.Errorf("corrupted detail = %q", v.Detail)
			}
		}
	}
}

// TestMixedLineCombinesChannelAndContentBreaches stacks a Figure 4(a) dirty
// save on top of a Figure 4(b)-style uncovered send gap and checks the
// checker reports both families with correctly formatted, counter-bearing
// details.
func TestMixedLineCombinesChannelAndContentBreaches(t *testing.T) {
	mk := func(p msg.ProcID) *checkpoint.Checkpoint {
		return checkpoint.New(checkpoint.Stable, p)
	}
	act, sdw, p2 := mk(msg.P1Act), mk(msg.P1Sdw), mk(msg.P2)
	// act's checkpoint reflects 5 sends, P2's only 3 receptions, and the
	// unacknowledged log restores #5 but not #4.
	act.SentTo[msg.P2] = 5
	act.Unacked = []msg.Message{{Kind: msg.Internal, From: msg.P1Act, To: msg.P2, ChanSeq: 5}}
	p2.RecvFrom[msg.P1Act] = 3
	p2.SentTo[msg.P1Act] = 2
	p2.SentTo[msg.P1Sdw] = 2
	act.RecvFrom[msg.P2] = 2
	sdw.RecvFrom[msg.P2] = 2
	// Independently, the shadow's save is dirty.
	sdw.Dirty = true

	l := Line{
		Ckpts:    map[msg.ProcID]*checkpoint.Checkpoint{msg.P1Act: act, msg.P1Sdw: sdw, msg.P2: p2},
		Topology: threeProcess(msg.P1Act),
	}
	vs := l.Check()

	if Count(vs, LostMessage) != 1 || Count(vs, DirtyStableContent) != 1 {
		t.Fatalf("violations = %v, want one lost message and one dirty content", vs)
	}
	for _, v := range vs {
		switch v.Kind {
		case LostMessage:
			if v.Proc != msg.P1Act {
				t.Errorf("lost message attributed to %v, want sender P1act", v.Proc)
			}
			want := fmt.Sprintf("message #%d to %v is reflected as sent, not received, and absent from the unacknowledged log", 4, msg.P2)
			if v.Detail != want {
				t.Errorf("lost detail = %q, want %q", v.Detail, want)
			}
		case DirtyStableContent:
			if v.Proc != msg.P1Sdw {
				t.Errorf("dirty content attributed to %v, want P1sdw", v.Proc)
			}
		default:
			t.Errorf("unexpected violation %v", v)
		}
	}
}
