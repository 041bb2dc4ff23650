package live

import (
	"errors"
	"fmt"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/msg"
)

// KillNode crashes one node's host: its volatile state is lost, its timers
// stop, its durable stable log handle drops (committed rounds are already
// fsynced), and the transport severs its connections — inbound and outbound
// frames fail or vanish until RestartNode. Unlike InjectHardwareFault, the
// survivors keep running; the system-wide rollback happens when the victim
// rejoins.
func (mw *Middleware) KillNode(victim msg.ProcID) error {
	if mw.sys.Process(victim) == nil {
		return fmt.Errorf("live: unknown process %v", victim)
	}
	if !mw.sys.CrashNode(msg.NodeID(victim)) {
		return fmt.Errorf("live: %v is already down", victim)
	}
	mw.net.Down(victim)
	mw.obsm.kills.Inc()
	return nil
}

// RestartNode boots a fresh instance of a killed node (coord.RebootNode over
// this runtime's Attach and Up): protocol state is rebuilt from scratch, the
// durable stable log is re-opened and recovered, the process restores from
// the newest on-disk checkpoint, the transport listener comes back, and a
// system-wide hardware recovery rolls every live process to the highest round
// all of them — including the rejoiner — have committed, re-sending saved
// unacknowledged messages over the fresh connections.
func (mw *Middleware) RestartNode(victim msg.ProcID) error {
	if failed, why := mw.Failure(); failed {
		return fmt.Errorf("live: system already failed: %s", why)
	}
	if mw.sys.Process(victim) == nil {
		return fmt.Errorf("live: unknown process %v", victim)
	}
	err := mw.observed(func() error { return mw.sys.RebootNode(msg.NodeID(victim)) })
	if err != nil {
		return fmt.Errorf("live: restart %v: %w", victim, err)
	}
	return nil
}

// NodeDown reports whether the node is currently crashed.
func (mw *Middleware) NodeDown(id msg.ProcID) bool { return mw.sys.NodeDown(msg.NodeID(id)) }

// ChaosStats returns the fault injector's counters (zero without a chaos
// scenario).
func (mw *Middleware) ChaosStats() chaos.Stats {
	if mw.inj == nil {
		return chaos.Stats{}
	}
	return mw.inj.Stats()
}

// CRCDrops reports frames the TCP receivers dropped on integrity-check
// failure (zero for other transports).
func (mw *Middleware) CRCDrops() uint64 {
	if tn, ok := mw.net.(*tcpNet); ok {
		return tn.crcDropCount()
	}
	return 0
}

// startCrashSchedule launches one runner per scheduled chaos crash: it
// sleeps to the kill time, crashes the victim, waits out the downtime and
// reboots it from durable storage.
func (mw *Middleware) startCrashSchedule() {
	if mw.inj == nil {
		return
	}
	for _, c := range mw.inj.Spec().Crashes {
		c := c
		mw.wg.Add(1)
		go func() {
			defer mw.wg.Done()
			if !mw.sleepStop(time.Until(mw.rt.Start.Add(c.At))) {
				return
			}
			if err := mw.KillNode(c.Victim); err != nil {
				return // unknown victim or already down (validation prevents overlap)
			}
			if c.Downtime <= 0 {
				return // scheduled to stay down
			}
			if !mw.sleepStop(c.Downtime) {
				return
			}
			if err := mw.RestartNode(c.Victim); err != nil {
				mw.sys.Fail(fmt.Sprintf("chaos restart %v: %v", c.Victim, err))
			}
		}()
	}
}

// restartLoop reboots a crash-stopped node with capped exponential backoff
// until the restart lands, the middleware stops, or the failure is permanent
// (a demoted active, coord.ErrDemoted).
func (mw *Middleware) restartLoop(victim msg.ProcID) {
	backoff := 10 * time.Millisecond
	const maxBackoff = 160 * time.Millisecond
	for {
		if !mw.sleepStop(backoff) {
			return
		}
		err := mw.RestartNode(victim)
		if err == nil || errors.Is(err, coord.ErrDemoted) {
			return
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// sleepStop waits out d, returning false if the middleware stopped first.
func (mw *Middleware) sleepStop(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-mw.stop:
		return false
	}
}
