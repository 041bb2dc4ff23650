package mdcd

import "github.com/synergy-ft/synergy/internal/msg"

// CopySuppressedPending is SuppressedPending as it was before it returned a
// view of the log: a fresh copy of every logged P2-bound entry the shadow has
// produced, dirty bit cleared. The differential tests hold the view to it.
func CopySuppressedPending(p *Process) []msg.Message {
	if p.role != RoleShadow || p.promoted {
		return nil
	}
	var out []msg.Message
	for _, log := range [][]msg.Message{p.msgLog, p.extLog} {
		for _, m := range log {
			if m.To != msg.P2 || m.ChanSeq > p.sentTo[msg.P2] {
				continue
			}
			m.DirtyBit = false
			out = append(out, m)
		}
	}
	return out
}
