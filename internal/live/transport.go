package live

import (
	"fmt"

	"github.com/synergy-ft/synergy/internal/msg"
)

// Transport selects how the middleware's nodes exchange messages.
type Transport uint8

// Transports.
const (
	// ChannelTransport delivers through in-process timer-delayed queues
	// (the default; fastest, no sockets).
	ChannelTransport Transport = iota
	// TCPTransport runs one loopback TCP listener per node and one shared
	// full-duplex connection per undirected node pair (both directed
	// channels multiplex onto it), framing messages with the binary codec —
	// the deployment shape the GSU middleware targets.
	TCPTransport
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case ChannelTransport:
		return "channel"
	case TCPTransport:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", uint8(t))
	}
}

// transport is the middleware's interconnect. Implementations must preserve
// per-channel FIFO order, bound delivery delay within [MinDelay, MaxDelay],
// and drop all in-flight traffic on flush.
type transport interface {
	// send hands a message to the interconnect (thread-safe).
	send(m msg.Message)
	// flush invalidates everything in flight (system-wide rollback).
	flush()
	// stats reports sent/delivered counters.
	stats() (sent, delivered uint64)
	// dropNode severs a crashed node's connectivity (no-op for
	// transports without per-node endpoints).
	dropNode(id msg.ProcID)
	// rejoinNode restores connectivity for a restarted node.
	rejoinNode(id msg.ProcID) error
	// close releases sockets and goroutines.
	close()
}

// pair names one directed channel.
type pair struct{ from, to msg.ProcID }
