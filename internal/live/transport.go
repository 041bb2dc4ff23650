package live

import (
	"fmt"

	"github.com/synergy-ft/synergy/internal/msg"
)

// Transport selects how the middleware's nodes exchange messages.
type Transport uint8

// Transports.
const (
	// ChannelTransport delivers through the node loops' timer-delayed queues
	// (the default; fastest, no sockets): the interconnect the simulator
	// runs, coord.Interconnect, on the wall clock.
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

// transport is the middleware's interconnect. Its two carriers — the
// assembly's own in-process coord.Interconnect on the node loops, and tcpNet —
// preserve per-channel FIFO order, bound delivery delay within [MinDelay,
// MaxDelay], and drop all in-flight traffic on Flush. All of it is safe for
// concurrent use.
type transport interface {
	// Send hands a message to the interconnect.
	Send(m msg.Message)
	// Flush invalidates everything in flight (system-wide rollback).
	Flush()
	// Stats reports sent/delivered counters.
	Stats() (sent, delivered uint64)
	// Down severs a crashed node's connectivity: traffic to and from it
	// fails or vanishes until Up restores it for the restarted node.
	Down(id msg.ProcID)
	Up(id msg.ProcID) error
}

// pair names one directed channel.
type pair struct{ from, to msg.ProcID }
