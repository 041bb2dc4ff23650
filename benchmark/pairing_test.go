package benchmark

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

const ms = vtime.Time(1e6)

func sentEv(at vtime.Time, from, to msg.ProcID, sn uint64, note string) trace.Event {
	return trace.Event{At: at, Proc: from, Kind: trace.MsgSent, Note: note,
		Msg: msg.Message{Kind: msg.Internal, From: from, To: to, SN: sn}}
}

func recvEv(at vtime.Time, from, to msg.ProcID, sn uint64) trace.Event {
	return trace.Event{At: at, Proc: to, Kind: trace.MsgDelivered,
		Msg: msg.Message{Kind: msg.Internal, From: from, To: to, SN: sn}}
}

func TestPairDeliveries(t *testing.T) {
	events := []trace.Event{
		sentEv(1*ms, msg.P1Act, msg.P2, 1, ""),
		sentEv(1*ms, msg.P1Sdw, msg.P2, 1, "suppressed"), // never on the wire
		recvEv(3*ms, msg.P1Act, msg.P2, 1),
		// SN 2 is lost to a recovery flush and re-sent: measured from the
		// first send to the first delivery.
		sentEv(4*ms, msg.P2, msg.P1Act, 2, ""),
		sentEv(50*ms, msg.P2, msg.P1Act, 2, ""),
		recvEv(52*ms, msg.P2, msg.P1Act, 2),
		recvEv(53*ms, msg.P2, msg.P1Act, 2), // duplicate delivery ignored
		// The same SN to the other replica is its own message.
		sentEv(4*ms, msg.P2, msg.P1Sdw, 2, ""),
		recvEv(5*ms, msg.P2, msg.P1Sdw, 2),
		// Delivered a hair before its own MsgSent was recorded.
		recvEv(60*ms-1, msg.P1Act, msg.P2, 3),
		sentEv(60*ms, msg.P1Act, msg.P2, 3, ""),
		// Old and never delivered: lost. Young and not yet delivered: in flight.
		sentEv(70*ms, msg.P1Act, msg.P2, 4, ""),
		sentEv(95*ms, msg.P1Act, msg.P2, 5, ""),
		// External messages and acks are not application deliveries.
		{At: 80 * ms, Proc: msg.P2, Kind: trace.MsgSent, Msg: msg.Message{Kind: msg.External, From: msg.P2, To: msg.Device, SN: 9}},
	}
	pairs, unmatched := PairDeliveries(events, 0, 90*ms)
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1 (SN 4 only)", unmatched)
	}
	want := map[msgKey]float64{
		{msg.P1Act, msg.P2, 1}: 2,
		{msg.P2, msg.P1Act, 2}: 48,
		{msg.P2, msg.P1Sdw, 2}: 1,
		{msg.P1Act, msg.P2, 3}: 0,
	}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs, want %d: %+v", len(pairs), len(want), pairs)
	}
	for _, p := range pairs {
		if w, ok := want[msgKey{p.From, p.To, p.SN}]; !ok || p.Ms() != w {
			t.Errorf("pair %v>%v#%d = %g ms, want %g (known %v)", p.From, p.To, p.SN, p.Ms(), w, ok)
		}
	}

	// Sends before the window are not paired, even when delivered inside it.
	pairs, _ = PairDeliveries(events, 2*ms, 0)
	for _, p := range pairs {
		if p.SN == 1 {
			t.Errorf("paired a send from before the window: %+v", p)
		}
	}
}

func TestSliceMs(t *testing.T) {
	pairs := []Delivery{
		{Sent: 5 * ms, Received: 6 * ms},   // before the window
		{Sent: 10 * ms, Received: 12 * ms}, // slice 0
		{Sent: 19 * ms, Received: 19.5e6},  // slice 0
		{Sent: 35 * ms, Received: 38 * ms}, // slice 2 (slice 1 stays empty)
	}
	got := SliceMs(pairs, 10*ms, int64(10*ms))
	if len(got) != 3 || len(got[0]) != 2 || len(got[1]) != 0 || len(got[2]) != 1 || got[0][0] != 2 || got[0][1] != 0.5 || got[2][0] != 3 {
		t.Errorf("SliceMs = %v", got)
	}
}

func TestPairRounds(t *testing.T) {
	ev := func(at vtime.Time, p msg.ProcID, k trace.Kind, note string) trace.Event {
		return trace.Event{At: at, Proc: p, Kind: k, Note: note}
	}
	events := []trace.Event{
		ev(10*ms, msg.P2, trace.StableBegun, "dirty=false"),
		ev(10*ms, msg.P2, trace.BlockStarted, ""),
		ev(11*ms, msg.P1Act, trace.StableBegun, ""),
		ev(11*ms, msg.P1Act, trace.BlockStarted, ""),
		ev(12*ms, msg.P2, trace.StableCommitted, "commit failed: EIO"), // a retry follows
		ev(14*ms, msg.P2, trace.StableCommitted, "Ndc=1 (after 1 retries)"),
		ev(14*ms, msg.P2, trace.BlockEnded, ""),
		ev(15*ms, msg.P1Act, trace.NodeCrashed, ""), // its block never ends
		ev(60*ms, msg.P2, trace.StableBegun, ""),
		ev(60*ms, msg.P2, trace.BlockStarted, ""),
		ev(63*ms, msg.P2, trace.StableCommitted, "Ndc=2"),
		ev(63*ms, msg.P2, trace.BlockEnded, ""),
		ev(110*ms, msg.P2, trace.BlockStarted, ""), // still open at the end
	}
	rounds := PairRounds(events, 0)
	if len(rounds) != 2 {
		t.Fatalf("got %d rounds, want 2: %+v", len(rounds), rounds)
	}
	if rounds[0].BlockMs() != 4 || rounds[0].StableMs() != 4 || rounds[1].BlockMs() != 3 || rounds[1].StableMs() != 3 {
		t.Errorf("rounds = %+v", rounds)
	}
	if got := PairRounds(events, 20*ms); len(got) != 1 || got[0].BlockStart != 60*ms {
		t.Errorf("rounds from 20 ms = %+v, want the 60 ms round only", got)
	}
}

func TestServiceGaps(t *testing.T) {
	events := []trace.Event{
		{At: 10 * ms, Proc: msg.P2, Kind: trace.NodeCrashed},
		recvEv(12*ms, msg.P2, msg.P1Act, 1), // another process's delivery
		{At: 13 * ms, Proc: msg.P2, Kind: trace.MsgDelivered, Msg: msg.Message{Kind: msg.PassedAT}},
		recvEv(40*ms, msg.P1Act, msg.P2, 7),
		recvEv(41*ms, msg.P1Act, msg.P2, 8),
		{At: 50 * ms, Proc: msg.P1Sdw, Kind: trace.NodeCrashed}, // no delivery follows
	}
	gaps := ServiceGapsMs(events)
	if len(gaps) != 1 || gaps[0] != 30 {
		t.Errorf("gaps = %v, want [30]", gaps)
	}
}
