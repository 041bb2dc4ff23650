package lint

import "testing"

func TestMsgProvenance(t *testing.T) {
	// Fixture message package: the identity-carrying type and its decoder.
	msgSrc := `package msg

type Message struct {
	SN      uint64
	ChanSeq uint64
	Kind    int
}

func Decode(b []byte) Message {
	return Message{SN: uint64(b[0]), ChanSeq: uint64(b[1])}
}
`
	// Fixture process package: sn and sentTo qualify as monotone counters
	// (incremented; other writes confined to the allow-listed restore or a
	// whole-map reset), while quota does not (rewritten in Throttle).
	procSrc := `package proc

import "example.com/msg"

type Proc struct {
	sn     uint64
	sentTo map[int]uint64
	quota  uint64
}

func (p *Proc) Send(dst int) msg.Message {
	p.sn++
	p.sentTo[dst]++
	return msg.Message{SN: p.sn, ChanSeq: p.sentTo[dst]}
}

func (p *Proc) RestoreFrom(sn uint64, sent map[int]uint64) {
	p.sn = sn
	p.sentTo = make(map[int]uint64, len(sent))
	for k, v := range sent {
		p.sentTo[k] = v
	}
}

func (p *Proc) Throttle() {
	p.quota++
	p.quota = 0
}
`
	a := &MsgProvenance{
		MsgPkg:   "example.com/msg",
		Fields:   map[string]bool{"SN": true, "ChanSeq": true},
		Decoders: map[string]bool{"example.com/msg.Decode": true},
		CounterWriters: map[string]bool{
			"example.com/proc.RestoreFrom": true,
		},
	}

	base := map[string]string{"proc.go": procSrc}
	withBad := func(src string) map[string]map[string]string {
		files := map[string]string{"proc.go": procSrc, "bad.go": src}
		return map[string]map[string]string{
			"example.com/msg":  {"msg.go": msgSrc},
			"example.com/proc": files,
		}
	}

	cases := []struct {
		name string
		pkgs map[string]map[string]string
		want []struct {
			line int
			rule string
			msg  string
		}
	}{
		{
			name: "literal and recomputed sequence numbers fire",
			pkgs: withBad(`package proc

import "example.com/msg"

func (p *Proc) Forge(dst int) msg.Message {
	return msg.Message{
		SN:      42,
		ChanSeq: p.sentTo[dst] + 1,
	}
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{7, "msgprovenance", "Message.SN"},
				{8, "msgprovenance", "Message.ChanSeq"},
			},
		},
		{
			name: "direct assignment from a non-counter fires",
			pkgs: withBad(`package proc

import "example.com/msg"

func (p *Proc) Stamp(m *msg.Message) {
	m.SN = p.quota
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{6, "msgprovenance", "Message.SN"}},
		},
		{
			name: "counter reads, field copies and the decoder are silent",
			pkgs: withBad(`package proc

import "example.com/msg"

func (p *Proc) Resend(dst int, logged msg.Message) msg.Message {
	return msg.Message{SN: logged.SN, ChanSeq: logged.ChanSeq}
}
`),
		},
		{
			name: "restore path and whole-map reset do not disqualify the counter",
			pkgs: map[string]map[string]string{
				"example.com/msg":  {"msg.go": msgSrc},
				"example.com/proc": base,
			},
		},
		{
			// The cluster's per-destination channel sequences: a slice of a
			// named slice type, indexed by slot.
			name: "slice counters: the counter read is silent, a forged index fires",
			pkgs: withBad(`package proc

import "example.com/msg"

type vec []uint64

type Dense struct {
	sn      uint64
	sentSeq vec
	scratch []uint64
}

func (d *Dense) Send(slot int) msg.Message {
	d.sn++
	d.sentSeq[slot]++
	return msg.Message{SN: d.sn, ChanSeq: d.sentSeq[slot]}
}

func (d *Dense) Forge(slot int) msg.Message {
	d.scratch[slot] = 7
	return msg.Message{SN: d.sn, ChanSeq: d.scratch[slot]}
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{21, "msgprovenance", "Message.ChanSeq"}},
		},
		{
			// The three-process core's counters: a ProcID-indexed array of a
			// named array type. Read after its increment it is a counter;
			// recomputed from one, copied through a local, or read from an
			// array written with a literal it is not.
			name: "array counters: the counter read is silent, recomputed or literal reads fire",
			pkgs: withBad(`package proc

import "example.com/msg"

type counts [5]uint64

type Arr struct {
	sn     uint64
	sent   counts
	limits counts
}

func (a *Arr) Send(dst int) msg.Message {
	a.sn++
	a.sent[dst]++
	return msg.Message{SN: a.sn, ChanSeq: a.sent[dst]}
}

func (a *Arr) Forge(dst int) msg.Message {
	return msg.Message{SN: a.sn, ChanSeq: a.sent[dst] + 1}
}

func (a *Arr) Launder(dst int) msg.Message {
	seq := a.sent[dst]
	return msg.Message{SN: a.sn, ChanSeq: seq}
}

func (a *Arr) Stamp(dst int) msg.Message {
	a.limits[dst] = 3
	return msg.Message{SN: a.sn, ChanSeq: a.limits[dst]}
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{20, "msgprovenance", "Message.ChanSeq"},
				{25, "msgprovenance", "Message.ChanSeq"},
				{30, "msgprovenance", "Message.ChanSeq"},
			},
		},
		{
			name: "lint ignore with reason suppresses",
			pkgs: withBad(`package proc

import "example.com/msg"

func (p *Proc) Replay(sn uint64) msg.Message {
	//lint:ignore msgprovenance fault-injection harness forges identities deliberately
	return msg.Message{SN: sn}
}
`),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}
