package cluster

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Msg is one reliable-channel cluster message. Streams are identified by the
// ORIGIN COMPONENT (active and shadow embodiments share one numbering, so a
// promoted shadow continues the stream its active started), while From/To
// are the transmitting and receiving nodes of this particular copy.
type Msg struct {
	// Ack marks a per-channel acknowledgement instead of app traffic.
	Ack bool
	// FromComp is the origin component (the stream identity).
	FromComp gmdcd.ComponentID
	// ToComp is the destination component (both its replicas get a copy).
	ToComp gmdcd.ComponentID
	// From and To are the transmitting and receiving nodes of this copy.
	From, To msg.ProcID
	// FromSdw marks a copy transmitted by a (promoted) shadow.
	FromSdw bool
	// Seq is the per-(origin→destination component) channel sequence.
	Seq uint64
	// SelfSN is the sender's own stream position at emission.
	SelfSN uint64
	// Influence is the sender's stamped suspicion vector by slot, read-only.
	Influence []uint64
	// Corrupted is the ground-truth contamination marker.
	Corrupted bool
	// AckSeq is the channel sequence an Ack acknowledges.
	AckSeq uint64
	// Wire is the protocol-visible record of this emission: its identity
	// (SN, ChanSeq) is minted from the sender's own counters exactly once,
	// at emission, and every transported copy inherits it (From/To stamped
	// per copy).
	Wire msg.Message
}

// volatileSnap is a volatile checkpoint: the gmdcd snapshot extended with a
// mark of the unacknowledged-message set at establishment, so stable
// contents copied from it re-send relative to the captured state.
type volatileSnap struct {
	kind      checkpoint.Kind
	state     *app.State
	influence []uint64
	valid     []uint64
	sentSeq   []uint64
	recvSeq   []uint64
	ownSN     uint64
	unacked   tb.Mark
}

// cnode is one cluster node: one replica of one component, with its own
// checkpointer, clock and gossip member. All methods run under the node (the
// simulator's event thread, or the node's lock in live mode).
type cnode struct {
	cl     *Cluster
	id     msg.ProcID
	comp   gmdcd.ComponentID
	slot   int // comp's slot
	spec   gmdcd.ComponentSpec
	shadow bool

	// The four vectors are indexed by slot; zero means absent (see slots).
	state     *app.State
	influence []uint64
	valid     []uint64
	ownSN     uint64
	sentSeq   []uint64 // per-destination-component channel sequence
	recvSeq   []uint64 // per-origin-component channel high-water
	// raises collects the entries of a delivered passed-AT payload that
	// raise valid (readPassedAT's scratch).
	raises []raise
	// passed is the validation this node last broadcast, in passedEpoch.
	// Gossip delivers only the newest passed-AT update of each origin, so
	// every broadcast of an epoch must cover the ones before it: each is
	// merged over this one.
	passed      []uint64
	passedEpoch uint64

	volatileCkpt *volatileSnap
	ckptCount    int
	write        stableWrite // the contents StableContents names
	log          []Msg       // shadow: suppressed outgoing messages

	held    []Msg    // deliveries parked by an in-progress blocking period
	pending []func() // workload emissions deferred by a blocking period
	// emitInternal, emitExternal and tick as values, bound once: what every
	// firing of the node's workload streams hands to emit, and what arms its
	// anti-entropy ticks.
	internalFn, externalFn, tickFn func()

	clock *vtime.Clock
	cp    *tb.Checkpointer
	gsp   *gossip.Node
	rng   *rand.Rand
	// onPacket hands a gossip packet that reached the node to gsp unless the
	// cluster stopped or the node failed; every transport passes this one.
	onPacket func(gossip.Packet)

	// failed is atomic because the gossip transport and the anti-entropy
	// tick consult it outside the node (gossip.Node.Handle must not run
	// under the node: its Deliver callback takes it).
	failed   atomic.Bool
	promoted bool
}

func newNode(cl *Cluster, id msg.ProcID, spec gmdcd.ComponentSpec, shadow bool) *cnode {
	k := len(cl.comps.ids)
	n := &cnode{
		cl:        cl,
		id:        id,
		comp:      spec.ID,
		slot:      cl.comps.of(spec.ID),
		spec:      spec,
		shadow:    shadow,
		state:     app.NewState(),
		influence: make([]uint64, k),
		valid:     make([]uint64, k),
		sentSeq:   make([]uint64, k),
		recvSeq:   make([]uint64, k),
		passed:    make([]uint64, k),
		rng:       rand.New(&lazySource{seed: mixSeed(cl.cfg.Seed, uint64(id))}),
	}
	n.internalFn, n.externalFn, n.tickFn = n.emitInternal, n.emitExternal, n.tick
	return n
}

// lazySource is math/rand's seeded source, seeded at its first draw — same
// seed, same stream. Seeding costs more than the rest of a node's assembly,
// and a node draws only for an imperfect acceptance test or a clock resync:
// under at.Perfect most of a membership never does.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) seeded() rand.Source64 {
	if s.src == nil {
		s.src, _ = rand.NewSource(s.seed).(rand.Source64) // documented to be one
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.seeded().Int63() }
func (s *lazySource) Uint64() uint64  { return s.seeded().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// emit runs one workload emission now, or defers it to the end of an
// in-progress blocking period: the TB protocol quiesces application sends
// while a stable write is in flight, which is also what keeps the adapted
// variant's content-adjust hook one-directional (a validation can flip the
// dirty bit clean during blocking, but nothing may flip it dirty — a
// replaced checkpoint must never capture a contaminated state).
func (n *cnode) emit(fn func()) {
	if n.cp.InBlocking() {
		n.pending = append(n.pending, fn)
		return
	}
	fn()
}

// guardedActive reports whether this replica is the suspect version itself.
func (n *cnode) guardedActive() bool { return n.spec.Guarded && !n.shadow && !n.promoted }

// foreignDirty reports unvalidated influence the replica would roll back
// from (gmdcd semantics: a guarded active skips back-propagated positions of
// its own stream).
func (n *cnode) foreignDirty() bool { return n.exceedsValid(n.influence) }

// exceedsValid reports whether vec runs ahead of the validated positions
// anywhere but, at a guarded active, its own stream.
func (n *cnode) exceedsValid(vec []uint64) bool {
	for i, inf := range vec {
		if inf > n.valid[i] && !(i == n.slot && n.guardedActive()) {
			return true
		}
	}
	return false
}

// suspect is the acceptance-test trigger and the stamping rule.
func (n *cnode) suspect() bool { return n.guardedActive() || n.foreignDirty() }

// dirty is the bit the TB checkpointer consults: the three-process pseudo
// dirty bit generalized — a guarded active is dirty while its own stream
// runs ahead of its validated position, and any replica is dirty while it
// reflects unvalidated foreign influence.
func (n *cnode) dirty() bool {
	if n.guardedActive() && n.ownSN > n.valid[n.slot] {
		return true
	}
	return n.foreignDirty()
}

// outVector builds the influence vector an emission carries.
func (n *cnode) outVector() []uint64 {
	vec := slices.Clone(n.influence)
	if n.suspect() {
		vec[n.slot] = n.ownSN
	}
	return vec
}

// contaminates reports whether applying m would introduce unvalidated
// influence.
func (n *cnode) contaminates(m Msg) bool { return n.exceedsValid(m.Influence) }

// notifyDirty reports a dirty-bit change to the checkpointer (the adapted
// protocol's write_disk monitoring hook).
func (n *cnode) notifyDirty(before bool) {
	if d := n.dirty(); d != before {
		n.cp.NotifyDirtyChanged(d)
	}
}

// saveVolatile establishes a volatile checkpoint of the current (clean)
// state, marking the live unacknowledged set. It overwrites the one it
// replaces: a node keeps one, and restore copies out of it.
func (n *cnode) saveVolatile(kind checkpoint.Kind) {
	s := n.volatileCkpt
	if s == nil {
		k := len(n.valid)
		s = &volatileSnap{influence: make([]uint64, k), valid: make([]uint64, k),
			sentSeq: make([]uint64, k), recvSeq: make([]uint64, k)}
		n.volatileCkpt = s
	}
	s.kind = kind
	s.state = n.state.Clone()
	copy(s.influence, n.influence)
	copy(s.valid, n.valid)
	copy(s.sentSeq, n.sentSeq)
	copy(s.recvSeq, n.recvSeq)
	s.ownSN = n.ownSN
	s.unacked = n.cp.MarkUnacked()
	n.ckptCount++
}

// emitInternal emits one internal message to every peer component. A guarded
// active establishes its pseudo volatile checkpoint before the first
// emission after a validation (the state is clean now and about to become
// suspect); a lockstep shadow suppresses and logs.
func (n *cnode) emitInternal() {
	if n.failed.Load() {
		return
	}
	if n.guardedActive() && n.ownSN == n.valid[n.slot] && !n.foreignDirty() {
		n.saveVolatile(checkpoint.Pseudo)
	}
	before := n.dirty()
	n.ownSN++
	vec := n.outVector()
	for _, peer := range n.spec.Peers {
		to := n.cl.comps.of(peer)
		n.sentSeq[to]++
		m := Msg{
			FromComp: n.comp, ToComp: peer, FromSdw: n.shadow,
			Seq: n.sentSeq[to], SelfSN: n.ownSN,
			Wire:      n.mintWire(to),
			Influence: vec,
			Corrupted: n.state.Corrupted,
		}
		if n.shadow && !n.promoted {
			n.log = append(n.log, m) // resendLog strips the own-stream stamp
		} else {
			n.sendApp(m)
		}
	}
	n.notifyDirty(before)
}

// mintWire builds the protocol-visible record of the emission to slot to,
// whose counters were just advanced. The message identity is read from the
// sender's own monotone counters here and nowhere else; copies inherit it.
func (n *cnode) mintWire(to int) msg.Message {
	return msg.Message{
		Kind: msg.Internal,
		SN:   n.ownSN, ChanSeq: n.sentSeq[to],
		Payload: msg.Payload{
			Seq:       n.sentSeq[to],
			Value:     int64(n.comp)<<32 ^ int64(n.sentSeq[to]),
			Corrupted: n.state.Corrupted,
		},
	}
}

// sendApp fans one logical message out to the destination component's
// replica nodes, recording each copy in the unacknowledged log.
func (n *cnode) sendApp(m Msg) {
	for _, t := range n.cl.targetNodes(m.ToComp) {
		mc := m
		mc.From = n.id
		mc.To = t
		n.cl.cnt.msgsSent.Add(1)
		w := m.Wire
		w.From = n.id
		w.To = t
		n.cp.OnSend(w)
		n.cl.transmit(mc)
	}
}

// targetNodes lists the replica nodes a message to a component addresses
// (read-only). Failed replicas still receive copies (harmlessly discarded) so
// the fan-out is a pure function of the assignment.
func (cl *Cluster) targetNodes(c gmdcd.ComponentID) []msg.ProcID {
	if slot := cl.comps.of(c); slot >= 0 {
		return cl.targets[slot]
	}
	return nil
}

// emitExternal emits one external message, running the acceptance test when
// the state is potentially contaminated. A pass validates the full influence
// vector plus the sender's own stream and broadcasts that knowledge over the
// dissemination layer.
func (n *cnode) emitExternal() {
	if n.failed.Load() || (n.shadow && !n.promoted) {
		return
	}
	if !n.suspect() {
		return // clean external: no AT needed, leaves the system
	}
	payload := msg.Payload{Value: n.state.Acc, Seq: n.state.Step, Corrupted: n.state.Corrupted}
	if !n.cl.cfg.Topology.Test.Check(payload, n.rng) {
		n.cl.recoverFrom(n)
		return
	}
	before := n.dirty()
	validated := n.lastPassed()
	mergeVec(validated, n.influence)
	validated[n.slot] = max(validated[n.slot], n.ownSN)
	mergeVec(n.valid, validated)
	n.cl.cnt.atsPassed.Add(1)
	n.gsp.Broadcast(updPassedAT, encodePassedAT(n.cl.epoch, n.comp, n.cl.comps, validated))
	n.notifyDirty(before)
}

// lastPassed returns the validation this node last broadcast in the current
// recovery epoch — all zero in a new one — for the next broadcast to raise.
// Within an epoch influence and ownSN only grow (every restore runs inside a
// software recovery, after the epoch bump), so an acceptance test's merge
// over it is the vector it validates.
func (n *cnode) lastPassed() []uint64 {
	if n.passedEpoch != n.cl.epoch {
		clear(n.passed)
		n.passedEpoch = n.cl.epoch
	}
	return n.passed
}

// onDeliver accepts one transported message copy. Acks bypass the blocking
// gate (they are middleware traffic, not application reads); app messages
// arriving during a blocking period are parked until ReleaseHeld.
func (n *cnode) onDeliver(m Msg) {
	if n.failed.Load() {
		return
	}
	if m.Ack {
		n.cl.cnt.acks.Add(1)
		n.cp.OnAck(msg.Message{Kind: msg.Ack, From: m.From, To: n.id, AckSN: m.AckSeq})
		return
	}
	n.cl.cnt.msgsDelivered.Add(1)
	if n.cp.InBlocking() {
		n.cl.cnt.held.Add(1)
		n.held = append(n.held, m)
		return
	}
	n.ingest(m)
}

// ingest applies one delivered message: ChanSeq duplicates are discarded and
// re-acked (the sender clears its unacknowledged slot either way); fresh
// messages advance the per-origin high-water (gaps from recovery flushes are
// jumped, exactly as in gmdcd — the counters, not contiguity, carry the
// consistency argument).
func (n *cnode) ingest(m Msg) {
	from := n.cl.comps.of(m.FromComp)
	if m.Seq <= n.recvSeq[from] {
		n.cl.cnt.dups.Add(1)
		n.ackTo(m)
		return
	}
	before := n.dirty()
	// Type-1: capture the last non-contaminated state immediately before
	// it reflects unvalidated influence.
	if !n.foreignDirty() && n.contaminates(m) {
		n.saveVolatile(checkpoint.Type1)
	}
	n.recvSeq[from] = m.Seq
	mergeVec(n.influence, m.Influence)
	n.state.ApplyMessage(msg.Payload{Seq: m.Seq, Value: int64(m.FromComp)<<32 ^ int64(m.Seq), Corrupted: m.Corrupted})
	n.ackTo(m)
	n.notifyDirty(before)
}

// ackTo acknowledges one received copy back to its transmitting node.
func (n *cnode) ackTo(m Msg) {
	n.cl.transmit(Msg{
		Ack: true, From: n.id, To: m.From,
		FromComp: n.comp, ToComp: m.FromComp, AckSeq: m.Seq,
	})
}

// onValidated applies the raises a delivered passed-AT vector makes to valid;
// a lockstep shadow reclaims log entries whose own-stream positions the
// validation covers. Raising valid can only clear the dirty bit, so it is
// read before only when something rises, and again after only if it was set.
func (n *cnode) onValidated(raises []raise) {
	if n.failed.Load() {
		return
	}
	wasDirty := len(raises) > 0 && n.dirty()
	applyRaises(n.valid, raises)
	if n.shadow && !n.promoted {
		kept := n.log[:0]
		horizon := n.valid[n.slot]
		for _, m := range n.log {
			if m.SelfSN > horizon {
				kept = append(kept, m)
			}
		}
		n.log = kept
	}
	n.cl.cnt.validations.Add(1)
	if wasDirty {
		n.notifyDirty(true)
	}
}

// recoverLocal is the confidence-adaptive local decision: roll back iff the
// state reflects unvalidated foreign influence.
func (n *cnode) recoverLocal() (rolledBack bool) {
	if !n.foreignDirty() {
		return false
	}
	n.restore(n.volatileCkpt)
	return true
}

// restore rewinds to a volatile snapshot (nil means genesis). Held
// deliveries belong to the flushed epoch and are discarded — their sends
// stay in the senders' unacknowledged logs, which is what keeps the
// recovery-line evidence sound. The unacknowledged log is reconciled against
// the restored send counters.
func (n *cnode) restore(s *volatileSnap) {
	if s == nil {
		zero := make([]uint64, len(n.valid)) // every entry absent
		s = &volatileSnap{state: app.NewState(), influence: zero, valid: zero, sentSeq: zero, recvSeq: zero}
	}
	n.state = s.state.Clone()
	copy(n.influence, s.influence)
	copy(n.valid, s.valid)
	copy(n.sentSeq, s.sentSeq)
	copy(n.recvSeq, s.recvSeq)
	n.ownSN = s.ownSN
	n.held = nil
	n.pending = nil // deferred emissions belong to the flushed computation
	if n.shadow {
		kept := n.log[:0]
		for _, m := range n.log {
			if m.Seq <= n.sentSeq[n.cl.comps.of(m.ToComp)] {
				kept = append(kept, m)
			}
		}
		n.log = kept
	}
	n.cp.AbortCycle()
	n.cp.ReconcileUnacked(func(to msg.ProcID) uint64 {
		return n.sentSeq[n.cl.nodes[to].slot]
	})
}

// resendLog completes a takeover: logged messages the promoted shadow's
// (restored) state has produced are re-sent without own-stream suspicion (the
// shadow's computation is trusted); receivers deduplicate.
func (n *cnode) resendLog() {
	for _, m := range n.log {
		if m.Seq > n.sentSeq[n.cl.comps.of(m.ToComp)] {
			continue
		}
		m.Influence = slices.Clone(m.Influence)
		m.Influence[n.slot] = 0
		n.sendApp(m)
	}
	n.log = nil
}

// ---- tb.Runtime, tb.Host ----

// Now implements tb.Runtime.
func (n *cnode) Now() vtime.Time { return n.cl.rt.Now() }

// After implements tb.Runtime: the checkpointer's timers live on the node's
// own thread of control and their callbacks run holding it.
func (n *cnode) After(d time.Duration, fn func()) seam.Timer {
	return n.cl.rt.After(n.id, d, fn)
}

// Cancel implements tb.Runtime.
func (n *cnode) Cancel(t seam.Timer) { n.cl.rt.Cancel(t) }

// EffectiveDirty implements tb.Host.
func (n *cnode) EffectiveDirty() bool { return n.dirty() }

// StableContents implements tb.Host: a stable write's contents are read
// straight off the node, its vectors or its volatile checkpoint.
func (n *cnode) StableContents(fromVolatile bool) (checkpoint.Encoder, bool) {
	n.write = stableWrite{n: n}
	if fromVolatile {
		if n.volatileCkpt == nil {
			return nil, false
		}
		n.write.snap = n.volatileCkpt
	}
	return &n.write, true
}

// stableHost is the tb.Host a node's stable writes name their contents
// through: the node itself. A test wraps it to check every write.
var stableHost = func(n *cnode) tb.Host { return n }

// ReleaseHeld implements tb.Host: deliveries parked by the blocking period
// are read now in arrival order, then deferred workload emissions run.
func (n *cnode) ReleaseHeld() {
	held := n.held
	n.held = nil
	for _, m := range held {
		if n.failed.Load() {
			return
		}
		n.ingest(m)
	}
	pend := n.pending
	n.pending = nil
	for _, fn := range pend {
		if n.failed.Load() {
			return
		}
		fn()
	}
}

// stableWrite is a stable write's contents as the node holds them: its
// current state, or with snap set its volatile checkpoint relabelled stable
// and clean. Either is stamped with the time and Ndc of the write.
type stableWrite struct {
	n    *cnode
	snap *volatileSnap
}

// AppendTo implements checkpoint.Encoder.
func (w *stableWrite) AppendTo(buf []byte) []byte {
	n, s := w.n, w.snap
	if s == nil {
		buf = checkpoint.AppendHeader(buf, checkpoint.Stable, n.id, n.cl.rt.Now(), n.cp.Ndc(), n.dirty(), n.ownSN, n.state)
		buf = n.appendCounters(buf, n.sentSeq, n.recvSeq, n.valid)
		return n.cp.AppendUnacked(buf, tb.Mark{})
	}
	// The volatile checkpoint captured a clean state.
	buf = checkpoint.AppendHeader(buf, checkpoint.Stable, n.id, n.cl.rt.Now(), n.cp.Ndc(), false, s.ownSN, s.state)
	buf = n.appendCounters(buf, s.sentSeq, s.recvSeq, s.valid)
	return n.cp.AppendUnacked(buf, s.unacked)
}

// appendCounters writes the present slot-indexed counters lowered onto node
// keys: a sender's per-component counter appears under both replica nodes, a
// receiver's per-origin counter under the origin's active node, the shared
// stream key.
func (n *cnode) appendCounters(buf []byte, sent, recv, valid []uint64) []byte {
	buf = appendKeyed(buf, n.cl.sentKeys, sent)
	buf = appendKeyed(buf, n.cl.streamKeys, recv)
	return appendKeyed(buf, n.cl.streamKeys, valid)
}

// appendKeyed writes vec's present entries under their keys, laid out as the
// checkpoint codec lays out a counter set (checkpoint.AppendCounts): their
// number, then each key byte and its little-endian value, keys ascending.
func appendKeyed(buf []byte, keys []counterKey, vec []uint64) []byte {
	at := len(buf)
	buf = append(buf, 0)
	for _, k := range keys {
		if v := vec[k.slot]; v != 0 {
			buf = binary.LittleEndian.AppendUint64(append(buf, byte(k.id)), v)
			buf[at]++
		}
	}
	return buf
}
