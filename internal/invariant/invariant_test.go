package invariant

import (
	"strings"
	"testing"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// threeProcess is the three-process assembly's channel set: only the active
// embodiment of component 1 transmits its stream, and P2 broadcasts its
// stream to both component-1 processes.
func threeProcess(active msg.ProcID) []Channel {
	return []Channel{
		{Sender: active, Receiver: msg.P2, StreamKey: msg.Component(active)},
		{Sender: msg.P2, Receiver: msg.P1Act, StreamKey: msg.Component(msg.P2)},
		{Sender: msg.P2, Receiver: msg.P1Sdw, StreamKey: msg.Component(msg.P2)},
	}
}

func cleanLine() Line {
	mk := func(p msg.ProcID) *checkpoint.Checkpoint {
		return checkpoint.New(checkpoint.Stable, p)
	}
	act, sdw, p2 := mk(msg.P1Act), mk(msg.P1Sdw), mk(msg.P2)
	// A consistent exchange: act sent 3 to P2, P2 received 3; P2 sent 2 to
	// each component-1 process, both received 2.
	act.SentTo[msg.P2] = 3
	p2.RecvFrom[msg.P1Act] = 3
	p2.SentTo[msg.P1Act] = 2
	p2.SentTo[msg.P1Sdw] = 2
	act.RecvFrom[msg.P2] = 2
	sdw.RecvFrom[msg.P2] = 2
	return Line{
		Ckpts:    map[msg.ProcID]*checkpoint.Checkpoint{msg.P1Act: act, msg.P1Sdw: sdw, msg.P2: p2},
		Topology: threeProcess(msg.P1Act),
	}
}

func TestCleanLinePasses(t *testing.T) {
	if vs := cleanLine().Check(); len(vs) != 0 {
		t.Fatalf("violations on a clean line: %v", vs)
	}
}

func TestOrphanMessageDetected(t *testing.T) {
	l := cleanLine()
	l.Ckpts[msg.P2].RecvFrom[msg.P1Act] = 5 // more received than sent
	vs := l.Check()
	if Count(vs, OrphanMessage) != 1 {
		t.Fatalf("violations = %v, want one orphan", vs)
	}
	if vs[0].Proc != msg.P2 {
		t.Fatalf("orphan attributed to %v", vs[0].Proc)
	}
}

func TestGapCoveredByUnackedPasses(t *testing.T) {
	l := cleanLine()
	l.Ckpts[msg.P1Act].SentTo[msg.P2] = 5 // gap: messages 4 and 5
	l.Ckpts[msg.P1Act].Unacked = []msg.Message{
		{Kind: msg.Internal, From: msg.P1Act, To: msg.P2, ChanSeq: 4},
		{Kind: msg.Internal, From: msg.P1Act, To: msg.P2, ChanSeq: 5},
	}
	if vs := l.Check(); len(vs) != 0 {
		t.Fatalf("covered gap flagged: %v", vs)
	}
}

func TestLostMessageDetected(t *testing.T) {
	l := cleanLine()
	l.Ckpts[msg.P1Act].SentTo[msg.P2] = 5
	l.Ckpts[msg.P1Act].Unacked = []msg.Message{
		{Kind: msg.Internal, From: msg.P1Act, To: msg.P2, ChanSeq: 5},
		// #4 is missing: sent, acked away, receiver rolled back past it.
	}
	vs := l.Check()
	if Count(vs, LostMessage) != 1 {
		t.Fatalf("violations = %v, want one lost message", vs)
	}
	if !strings.Contains(vs[0].Detail, "#4") {
		t.Fatalf("detail should name message #4: %q", vs[0].Detail)
	}
}

func TestDirtyStableContentDetected(t *testing.T) {
	l := cleanLine()
	l.Ckpts[msg.P2].Dirty = true
	vs := l.Check()
	if Count(vs, DirtyStableContent) != 1 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestCorruptedStableContentDetected(t *testing.T) {
	l := cleanLine()
	l.Ckpts[msg.P1Sdw].State.Corrupted = true
	vs := l.Check()
	if Count(vs, CorruptedStableContent) != 1 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestPromotedShadowAsActiveC1(t *testing.T) {
	l := cleanLine()
	delete(l.Ckpts, msg.P1Act) // demoted; shadow took over
	l.Topology = threeProcess(msg.P1Sdw)
	l.Ckpts[msg.P1Sdw].SentTo[msg.P2] = 3 // shadow's counters are in lockstep
	if vs := l.Check(); len(vs) != 0 {
		t.Fatalf("violations after takeover: %v", vs)
	}
	// The shadow's stream continues the component-1 numbering: a lag in
	// its sent counter versus P2's receive counter is an orphan.
	l.Ckpts[msg.P1Sdw].SentTo[msg.P2] = 2
	if Count(l.Check(), OrphanMessage) != 1 {
		t.Fatal("post-takeover orphan not detected")
	}
}

func TestTwoProcessLine(t *testing.T) {
	mk := func(p msg.ProcID) *checkpoint.Checkpoint { return checkpoint.New(checkpoint.Stable, p) }
	pa, pb := mk(msg.P1Act), mk(msg.P2)
	pa.SentTo[msg.P2] = 1
	pb.RecvFrom[msg.P1Act] = 1
	pb.SentTo[msg.P1Act] = 4
	pa.RecvFrom[msg.P2] = 2
	pb.Unacked = []msg.Message{
		{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 3},
		{Kind: msg.Internal, From: msg.P2, To: msg.P1Act, ChanSeq: 4},
	}
	l := Line{Ckpts: map[msg.ProcID]*checkpoint.Checkpoint{msg.P1Act: pa, msg.P2: pb}, Topology: threeProcess(msg.P1Act)}
	if vs := l.Check(); len(vs) != 0 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestKindAndViolationStrings(t *testing.T) {
	for k := OrphanMessage; k <= CorruptedStableContent; k++ {
		if strings.HasPrefix(k.String(), "violation(") {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	v := Violation{Kind: LostMessage, Proc: msg.P2, Detail: "x"}
	if got := v.String(); !strings.Contains(got, "lost-message") || !strings.Contains(got, "P2") {
		t.Fatalf("String = %q", got)
	}
}

func TestCount(t *testing.T) {
	vs := []Violation{{Kind: LostMessage}, {Kind: OrphanMessage}, {Kind: LostMessage}}
	if Count(vs, LostMessage) != 2 || Count(vs, OrphanMessage) != 1 || Count(vs, DirtyStableContent) != 0 {
		t.Fatal("Count wrong")
	}
}
