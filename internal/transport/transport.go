// Package transport provides the message-passing layer of the TOLERANCE
// testbed: the Endpoint interface and its TCP implementation. The MinBFT
// replicas (internal/minbft) and the fleet's distributed coordinator
// (internal/fleet/proto) both speak through it; docs/ARCHITECTURE.md
// places both uses in the overall design.
//
// Network impairments (§VIII-A of the paper emulates 0.05% packet loss
// with NETEM) are the chaos plane's job: internal/chaos wraps an Endpoint
// to drop, duplicate, delay, partition and stall its traffic.
package transport

import "errors"

// Errors returned by transports.
var (
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTimeout marks a dial or write that exceeded its deadline. Callers
	// match it with errors.Is; the wrapped message names the peer and the
	// deadline so a stalled-replica diagnosis does not need packet captures.
	ErrTimeout = errors.New("transport: i/o timeout")
)

// Message is a payload delivered between endpoints.
type Message struct {
	// From is the sender's address.
	From string
	// To is the recipient's address.
	To string
	// Payload is the opaque message body.
	Payload []byte
}

// Endpoint is one attachment point to a network.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send delivers a payload to another endpoint. Send never blocks on
	// the recipient.
	Send(to string, payload []byte) error
	// Receive returns the channel of inbound messages. The channel is
	// closed when the endpoint closes.
	Receive() <-chan Message
	// Close detaches the endpoint.
	Close() error
}
