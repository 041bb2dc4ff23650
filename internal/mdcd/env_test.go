package mdcd

import (
	"math/rand"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// fakeEnv is a controllable Env for conformance tests.
type fakeEnv struct {
	now        vtime.Time
	rng        *rand.Rand
	sent       []msg.Message
	blocking   bool
	ndc        uint64
	rec        *trace.Recorder
	recoveries []msg.ProcID
}

var _ Env = (*fakeEnv)(nil)

func newFakeEnv() *fakeEnv {
	return &fakeEnv{rng: rand.New(rand.NewSource(1)), rec: trace.New()}
}

func (e *fakeEnv) Now() vtime.Time                   { return e.now }
func (e *fakeEnv) Rand() *rand.Rand                  { return e.rng }
func (e *fakeEnv) Send(m msg.Message)                { e.sent = append(e.sent, m) }
func (e *fakeEnv) InBlocking() bool                  { return e.blocking }
func (e *fakeEnv) Ndc() uint64                       { return e.ndc }
func (e *fakeEnv) RequestErrorRecovery(d msg.ProcID) { e.recoveries = append(e.recoveries, d) }

func (e *fakeEnv) sentOfKind(k msg.Kind) []msg.Message {
	var out []msg.Message
	for _, m := range e.sent {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

func (e *fakeEnv) reset() { e.sent = nil }

// modifiedCfg is the coordinated-scheme configuration.
func modifiedCfg(test at.Test) Config {
	return Config{Mode: ModeModified, GateOnNdc: true, Test: test}
}

// originalCfg is the original MDCD configuration.
func originalCfg(test at.Test) Config {
	return Config{Mode: ModeOriginal, Test: test}
}

// internalFrom builds an incoming internal app message.
func internalFrom(from msg.ProcID, chanSeq, sn uint64, dirty bool) msg.Message {
	return msg.Message{
		Kind:     msg.Internal,
		From:     from,
		To:       0,
		SN:       sn,
		ChanSeq:  chanSeq,
		DirtyBit: dirty,
		Payload:  msg.Payload{Seq: sn, Value: int64(sn)},
	}
}
