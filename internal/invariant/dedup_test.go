package invariant

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// mkLine builds a three-process line where P2's checkpoint reflects `sent`
// messages to P1act and P1act's reflects `recv` received on the P2 stream.
func mkLine(sent, recv uint64) Line {
	cks := map[msg.ProcID]*checkpoint.Checkpoint{
		msg.P1Act: checkpoint.New(checkpoint.Stable, msg.P1Act),
		msg.P1Sdw: checkpoint.New(checkpoint.Stable, msg.P1Sdw),
		msg.P2:    checkpoint.New(checkpoint.Stable, msg.P2),
	}
	cks[msg.P2].SentTo[msg.P1Act] = sent
	cks[msg.P1Act].RecvFrom[msg.P2] = recv
	return Line{Ckpts: cks, Topology: threeProcess(msg.P1Act)}
}

func TestOrphanAbsorbedByLiveSender(t *testing.T) {
	// The flake shape from the ROADMAP diagnosis: the receiver's committed
	// round reflects 12 P2 messages, the sender's only 10 — but the live
	// sender has long since produced 12, so restoring the line re-sends
	// #11..#12 and the receiver's ChanSeq dedup discards them.
	line := mkLine(10, 12)
	line.Live = &Evidence{Sent: map[msg.ProcID]map[msg.ProcID]uint64{
		msg.P2: {msg.P1Act: 12},
	}}
	vs, absorbed := line.CheckDetailed()
	if n := Count(vs, OrphanMessage); n != 0 {
		t.Fatalf("absorbed orphan still reported: %v", vs)
	}
	if len(absorbed) != 1 || absorbed[0].Kind != OrphanMessage {
		t.Fatalf("absorption not surfaced: %v", absorbed)
	}
	// Check() agrees with the detailed view.
	if n := Count(line.Check(), OrphanMessage); n != 0 {
		t.Fatalf("Check disagrees with CheckDetailed")
	}
}

func TestOrphanStillRealWhenLiveSenderBehind(t *testing.T) {
	// Live sender at 11 < the receiver's 12: message #12 was never
	// produced in any timeline — a genuine consistency violation the rule
	// must NOT absorb.
	line := mkLine(10, 12)
	line.Live = &Evidence{Sent: map[msg.ProcID]map[msg.ProcID]uint64{
		msg.P2: {msg.P1Act: 11},
	}}
	vs, absorbed := line.CheckDetailed()
	if n := Count(vs, OrphanMessage); n != 1 {
		t.Fatalf("fabricated message not reported: %v", vs)
	}
	if len(absorbed) != 0 {
		t.Fatalf("fabricated message absorbed: %v", absorbed)
	}
}

func TestOrphanUnchangedWithoutEvidence(t *testing.T) {
	line := mkLine(10, 12)
	if n := Count(line.Check(), OrphanMessage); n != 1 {
		t.Fatalf("evidence-free orphan check changed behaviour")
	}
}

func TestLostMessageAbsorbedByLiveReceiver(t *testing.T) {
	// Crash shape: the sender's round reflects #1..#5 sent, the receiver's
	// only #1..#3, and the checkpointed unacked log is empty — but the
	// live receiver has already applied through #5 (frames in flight at
	// the crash were redelivered by the reconnect-layer retransmit).
	line := mkLine(5, 3)
	line.Live = &Evidence{Recv: map[msg.ProcID]map[msg.ProcID]uint64{
		msg.P1Act: {msg.P2: 5},
	}}
	vs, absorbed := line.CheckDetailed()
	if n := Count(vs, LostMessage); n != 0 {
		t.Fatalf("absorbed losses still reported: %v", vs)
	}
	if len(absorbed) != 2 {
		t.Fatalf("want 2 absorbed losses (#4, #5), got %v", absorbed)
	}
}

func TestLostMessageAbsorbedByLiveUnacked(t *testing.T) {
	line := mkLine(5, 4)
	line.Live = &Evidence{
		Recv:    map[msg.ProcID]map[msg.ProcID]uint64{msg.P1Act: {msg.P2: 4}},
		Unacked: map[msg.ProcID]map[msg.ProcID][]uint64{msg.P2: {msg.P1Act: {5}}},
	}
	vs, absorbed := line.CheckDetailed()
	if n := Count(vs, LostMessage); n != 0 {
		t.Fatalf("retransmittable loss still reported: %v", vs)
	}
	if len(absorbed) != 1 {
		t.Fatalf("want 1 absorbed loss, got %v", absorbed)
	}
}

func TestLostMessageStillRealWhenNowhereLive(t *testing.T) {
	line := mkLine(5, 4)
	line.Live = &Evidence{
		Recv:    map[msg.ProcID]map[msg.ProcID]uint64{msg.P1Act: {msg.P2: 4}},
		Unacked: map[msg.ProcID]map[msg.ProcID][]uint64{msg.P2: {msg.P1Act: {}}},
	}
	vs, _ := line.CheckDetailed()
	if n := Count(vs, LostMessage); n != 1 {
		t.Fatalf("genuinely lost message not reported: %v", vs)
	}
}

func TestTopologyChannelsOverride(t *testing.T) {
	// A 4-node slice of a cluster topology: node 10 streams to 12 and 13,
	// node 12 streams back to 10.
	ids := []msg.ProcID{10, 12, 13}
	cks := make(map[msg.ProcID]*checkpoint.Checkpoint, len(ids))
	for _, id := range ids {
		cks[id] = checkpoint.New(checkpoint.Stable, id)
	}
	cks[10].SentTo[12] = 7
	cks[10].SentTo[13] = 7
	cks[12].RecvFrom[10] = 7
	cks[13].RecvFrom[10] = 9 // orphan on the 10→13 channel
	cks[12].SentTo[10] = 4
	cks[10].RecvFrom[12] = 4
	line := Line{
		Ckpts: cks,
		Topology: []Channel{
			{Sender: 10, Receiver: 12, StreamKey: 10},
			{Sender: 10, Receiver: 13, StreamKey: 10},
			{Sender: 12, Receiver: 10, StreamKey: 12},
		},
	}
	vs := line.Check()
	if n := Count(vs, OrphanMessage); n != 1 {
		t.Fatalf("topology orphan not found: %v", vs)
	}
	if vs[0].Proc != 13 {
		t.Fatalf("orphan attributed to %v, want 13", vs[0].Proc)
	}
	// A channel whose endpoint is missing from the line is skipped, not a
	// nil-map panic.
	line.Topology = append(line.Topology, Channel{Sender: 99, Receiver: 10, StreamKey: 99})
	_ = line.Check()
}
