package live

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/seam/wall"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
)

// New assembles a middleware instance running the coordinated scheme
// (modified MDCD + adapted TB).
func New(cfg Config) (*Middleware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rec := trace.New()
	if cfg.TraceCapacity > 0 {
		rec.SetCapacity(cfg.TraceCapacity)
	}
	mw := &Middleware{
		cfg:  cfg,
		rec:  &lockedRecorder{r: rec},
		obsm: newLiveObs(cfg.Obs),
		stop: make(chan struct{}),
	}
	if cfg.Chaos.Active() {
		inj, err := chaos.NewInjector(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		inj.Obs = chaos.NewObs(cfg.Obs)
		mw.inj = inj
	}
	mw.rt = wall.New(cfg.Seed, msg.Processes())
	var err error
	switch cfg.Net {
	case TCPTransport:
		mw.net, err = newTCPNet(mw, cfg.Seed^0x6e657477)
	default:
		bounds := coord.NetConfig{MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay}
		mw.net = coord.NewInterconnect(mw.rt, cfg.Seed, bounds, nil, func(m msg.Message) { mw.route(&m, true) })
	}
	if err != nil {
		mw.rt.Stop()
		return nil, err
	}
	mw.sys, err = coord.New(cfg.assembly(), wallClock{mw.rt, mw})
	if err != nil {
		mw.closeNet()
		mw.rt.Stop()
		return nil, err
	}
	mw.registerReads(cfg.Obs)
	return mw, nil
}

// wallClock is the assembly's runtime on the wall clock (coord.Runtime): the
// execution seam is wall.Runtime — a node is a lock and an event loop — the
// interconnect is the configured transport, and hosts have disks.
type wallClock struct {
	*wall.Runtime
	mw *Middleware
}

var _ coord.Runtime = wallClock{}

func (w wallClock) Send(m msg.Message)              { w.mw.net.Send(m) }
func (w wallClock) Flush()                          { w.mw.net.Flush() }
func (w wallClock) Stats() (sent, delivered uint64) { return w.mw.net.Stats() }
func (w wallClock) Record(e trace.Event)            { w.mw.rec.Record(e) }
func (w wallClock) Down(id msg.ProcID)              { closeLog(w.mw.sys.Checkpointer(id)) }

// Recover also prices the pass.
func (w wallClock) Recover(fn func()) {
	w.Runtime.Recover(func() { _ = w.mw.observed(func() error { fn(); return nil }) })
}

// Attach gives a node's store its durable log, when one is configured: the
// log is re-opened — through the chaos disk-fault windows and fsync stalls
// where a scenario schedules them — and the rounds that survive on disk
// replace the store's (the storage layer's recovery already discarded a torn
// tail). A failed open is returned, not escalated: a disk-fault window can
// make it fail transiently, and the caller (the fail-stop loop, a chaos
// runner, a test) decides whether to retry.
func (w wallClock) Attach(id msg.ProcID, st *storage.Stable) error {
	mw := w.mw
	if mw.cfg.StableDir == "" {
		return nil
	}
	label := obs.L("proc", id.String())
	var fs storage.VFS = storage.OSVFS{}
	if mw.inj != nil && mw.cfg.Chaos.DiskFaultsFor(id) {
		// Route every disk operation through the injector's scheduled fault
		// windows. The per-proc DiskObs series resolve to the same counters
		// across restarts (registry identity is name+labels), so applied
		// faults stay 1:1 with the injector's own stats.
		fs = &storage.FaultVFS{
			Inner: storage.OSVFS{},
			Verdict: func(op storage.DiskOp, path string, nb int) storage.DiskVerdict {
				return mw.inj.DiskVerdict(id, time.Since(mw.rt.Start), op, nb)
			},
			Obs: storage.NewDiskObs(mw.cfg.Obs, label),
		}
	}
	fb, info, err := storage.OpenFileVFS(filepath.Join(mw.cfg.StableDir, fmt.Sprintf("%v.stable", id)), fs)
	if err != nil {
		return fmt.Errorf("live: open stable log for %v: %w", id, err)
	}
	fb.Obs = storage.NewFileObs(mw.cfg.Obs, label)
	if mw.inj != nil && len(mw.cfg.Chaos.FsyncStalls) > 0 {
		// The storage layer owns no clock; the middleware hands it a
		// closure that sleeps out any open stall window before the fsync.
		fb.PreSync = func() {
			if d := mw.inj.FsyncStall(id, time.Since(mw.rt.Start)); d > 0 {
				mw.sleepStop(d)
			}
		}
	}
	if info.TailDamaged {
		mw.obsm.tornTails.Inc()
	}
	if err := st.Load(info.Records); err != nil {
		fb.Close()
		return fmt.Errorf("live: load stable log for %v: %w", id, err)
	}
	st.SetBackend(fb)
	return nil
}

// Up brings a rebooted node's transport listener back (every node held).
func (w wallClock) Up(id msg.ProcID) error {
	mw := w.mw
	if err := mw.net.Up(id); err != nil {
		return err
	}
	mw.obsm.restarts.Inc()
	mw.rec.Record(trace.Event{At: w.Now(), Proc: id, Kind: trace.NodeRestarted, Note: "rebooted from durable stable storage"})
	return nil
}

// FailStop makes a disk fault that node's failure: the assembly crash-stops
// it in place, and capped-backoff restart attempts drive it back through the
// normal hardware recovery path once the locks release — a persistent fault
// window keeps the reopen failing until the window closes. The restart loop
// does not register on mw.wg because it may start after Stop began waiting;
// every blocking step it takes is bounded by sleepStop or returns an error
// once the middleware shuts down.
func (w wallClock) FailStop(id msg.ProcID, _ error) bool {
	mw := w.mw
	mw.obsm.kills.Inc()
	mw.obsm.failstops.Inc()
	go func() {
		mw.net.Down(id)
		mw.restartLoop(id)
	}()
	return true
}

// closeLog drops a node's durable log handle (the node held); committed
// rounds are already fsynced.
func closeLog(cp *tb.Checkpointer) {
	if b := cp.Stable.Backend(); b != nil {
		b.Close()
	}
}

// observed runs one system-wide pass and, when it completed a recovery,
// prices it.
func (mw *Middleware) observed(pass func() error) error {
	t := mw.obsm.recoveryLatency.StartTimer()
	if t.IsZero() {
		return pass() // nothing records the latency
	}
	before := mw.recoveries()
	err := pass()
	if mw.recoveries() > before {
		mw.obsm.recoveryLatency.ObserveSince(t)
	}
	return err
}

// recoveries is how many hardware and software recoveries the assembly has
// completed.
func (mw *Middleware) recoveries() int {
	hw, sw, _ := mw.sys.Recoveries()
	return hw + sw
}

// Start launches the checkpoint timers, the workload streams and (when a
// chaos scenario schedules them) the crash-restart runners.
func (mw *Middleware) Start() {
	mw.sys.Start()
	mw.startCrashSchedule()
}

// Stop halts workload, timers and deliveries, and returns once the node loops
// have exited. It is idempotent.
func (mw *Middleware) Stop() {
	if mw.stopped.Swap(true) {
		return
	}
	close(mw.stop)
	mw.wg.Wait()
	mw.sys.Stop()
	mw.closeNet()
	for _, id := range msg.Processes() {
		_ = mw.sys.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) { closeLog(cp) })
	}
	mw.rt.Stop()
}

// closeNet releases the TCP carrier's sockets and goroutines. The in-process
// carrier has nothing of its own to release: its pending deliveries die with
// the node loops.
func (mw *Middleware) closeNet() {
	if tn, ok := mw.net.(*tcpNet); ok {
		tn.close()
	}
}

// Run drives the middleware for the given wall duration, then stops it.
func (mw *Middleware) Run(d time.Duration) {
	mw.Start()
	time.Sleep(d)
	mw.Stop()
}

// route delivers a message to its destination node, taking it unless the
// caller already holds it. It takes a pointer so the transports' delivery
// loops hand over their decoded message without another copy — route runs
// once per delivered message.
func (mw *Middleware) route(m *msg.Message, held bool) {
	if m.Kind == msg.Probe {
		// Probes are load-driver traffic: counted and consumed below the
		// protocol layer, before any per-node locking, so open-loop load
		// generation measures the transport without perturbing protocol
		// state. The channel's slot is the one count: ProbeStats and the
		// registry read it.
		mw.routed[m.From][m.To].probes.Add(1)
		return
	}
	if mw.sys.Process(m.To) == nil {
		return
	}
	if m.Kind == msg.Ack {
		mw.routed[m.From][m.To].acks.Add(1)
	}
	if !held {
		mw.rt.Hold(m.To)
		defer mw.rt.Release(m.To)
	}
	mw.sys.Deliver(m)
}

// System exposes the three-process assembly this middleware runs; its
// methods take the node locks themselves.
func (mw *Middleware) System() *coord.System { return mw.sys }

// ActivateSoftwareFault corrupts the active process's state.
func (mw *Middleware) ActivateSoftwareFault() { mw.sys.ActivateSoftwareFault() }

// CommitUpgrade ends guarded operation with the upgraded version accepted
// (see coord.System.CommitUpgrade). It reports false if guarded operation
// already ended.
func (mw *Middleware) CommitUpgrade() bool { return mw.sys.CommitUpgrade() }

// InjectHardwareFault crashes the node hosting proc and performs hardware
// error recovery: every live process rolls back to the highest checkpoint
// round all of them have committed, and saved unacknowledged messages are
// re-sent.
func (mw *Middleware) InjectHardwareFault(victim msg.ProcID) error {
	return mw.observed(func() error { return mw.sys.InjectHardwareFault(msg.NodeID(victim)) })
}

// ActiveC1 returns the process currently embodying the active side of
// component 1 (P1sdw after a software recovery demoted the original active).
func (mw *Middleware) ActiveC1() msg.ProcID { return mw.sys.ActiveC1() }

// RecoveryLine assembles the recovery line a hardware fault right now would
// restore, with the live evidence for the dedup-aware consistency rule (see
// coord.System.RecoveryLine). All node locks are held while it is sampled.
func (mw *Middleware) RecoveryLine() (invariant.Line, error) { return mw.sys.RecoveryLine() }

// Metrics returns a snapshot of the outcome counters.
func (mw *Middleware) Metrics() *coord.Metrics { return mw.sys.Metrics() }

// Failure reports an unrecoverable condition, if any.
func (mw *Middleware) Failure() (bool, string) { return mw.sys.Failed() }

// Inspect runs fn with the node's process and checkpointer under the node
// lock, for tests and demos.
func (mw *Middleware) Inspect(id msg.ProcID, fn func(p *mdcd.Process, cp *tb.Checkpointer)) error {
	return mw.sys.Inspect(id, fn)
}

// Trace exposes the locked trace recorder.
func (mw *Middleware) Trace() interface {
	Count(p msg.ProcID, k trace.Kind) int
	Events() []trace.Event
} {
	return mw.rec
}

// NetworkStats returns total sent and delivered message counts.
func (mw *Middleware) NetworkStats() (sent, delivered uint64) { return mw.net.Stats() }

// SendProbe injects one transport-level probe message on the from→to
// channel. Probes ride the interconnect exactly like protocol frames
// (delivery delay, batching, CRC, epoch checks, chaos verdicts) but are
// consumed by the router without touching any process, so load drivers and
// benchmarks can push the transport at arbitrary rates. A full writer queue
// blocks the caller (backpressure). Probes carry no delivery guarantee
// across recovery flushes: a flush may discard in-flight probes.
func (mw *Middleware) SendProbe(from, to msg.ProcID) {
	mw.probeMu.Lock()
	mw.probeSN++
	m := msg.Message{Kind: msg.Probe, From: from, To: to, SN: mw.probeSN, ChanSeq: mw.probeSN}
	mw.probeMu.Unlock()
	mw.net.Send(m)
}

// ProbeStats reports probes injected via SendProbe and probes the router
// consumed. They converge once in-flight traffic drains (absent recovery
// flushes, which legitimately discard in-flight probes).
func (mw *Middleware) ProbeStats() (sent, delivered uint64) {
	mw.probeMu.Lock()
	sent = mw.probeSN
	mw.probeMu.Unlock()
	for from := range mw.routed {
		for to := range mw.routed[from] {
			delivered += mw.routed[from][to].probes.Load()
		}
	}
	return sent, delivered
}

// acksRouted is how many acknowledgements route handed to checkpointers.
func (mw *Middleware) acksRouted() (acks uint64) {
	for from := range mw.routed {
		for to := range mw.routed[from] {
			acks += mw.routed[from][to].acks.Load()
		}
	}
	return acks
}
