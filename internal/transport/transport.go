// Package transport provides the message-passing layer of the TOLERANCE
// testbed: an in-process simulated network with netem-style impairments
// (latency, jitter, loss, partitions — §VIII-A of the paper emulates 0.05%
// packet loss with NETEM) and a TCP transport for cross-process deployments.
//
// The consensus protocol in this repository (MinBFT) speaks through
// the Endpoint interface, so tests can inject faults deterministically.
// The fleet's distributed coordinator (internal/fleet/proto) rides the
// same TCP endpoint for its lease protocol; docs/ARCHITECTURE.md places
// both uses in the overall design.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

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
	// Send delivers a payload to another endpoint, subject to the
	// network's impairments. Send never blocks on the recipient.
	Send(to string, payload []byte) error
	// Receive returns the channel of inbound messages. The channel is
	// closed when the endpoint closes.
	Receive() <-chan Message
	// Close detaches the endpoint.
	Close() error
}

// Conditions models netem-style link impairments.
type Conditions struct {
	// Delay is the base one-way latency.
	Delay time.Duration
	// Jitter is the maximum additional random latency.
	Jitter time.Duration
	// Loss is the probability in [0, 1] that a message is dropped.
	Loss float64
}

// SimNetwork is an in-process network connecting named endpoints.
type SimNetwork struct {
	mu         sync.Mutex
	rng        *rand.Rand
	conditions Conditions
	endpoints  map[string]*simEndpoint
	partition  map[string]map[string]bool // blocked sender -> receiver
	closed     bool
	wg         sync.WaitGroup
}

// NewSimNetwork creates a network with the given impairments; seed drives
// loss and jitter sampling.
func NewSimNetwork(cond Conditions, seed int64) (*SimNetwork, error) {
	if cond.Loss < 0 || cond.Loss > 1 {
		return nil, fmt.Errorf("transport: loss = %v out of [0,1]", cond.Loss)
	}
	return &SimNetwork{
		rng:        rand.New(rand.NewSource(seed)),
		conditions: cond,
		endpoints:  make(map[string]*simEndpoint),
		partition:  make(map[string]map[string]bool),
	}, nil
}

// Endpoint attaches (or returns the existing) endpoint for the address.
func (n *SimNetwork) Endpoint(addr string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if ep, ok := n.endpoints[addr]; ok && !ep.closed {
		return ep, nil
	}
	ep := &simEndpoint{
		net:  n,
		addr: addr,
		ch:   make(chan Message, 4096),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

// Partition blocks all traffic between the two groups (both directions).
func (n *SimNetwork) Partition(groupA, groupB []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range groupA {
		for _, b := range groupB {
			n.block(a, b)
			n.block(b, a)
		}
	}
}

// Heal removes all partitions.
func (n *SimNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]map[string]bool)
}

// Isolate cuts an endpoint off from everyone else.
func (n *SimNetwork) Isolate(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.endpoints {
		if other == addr {
			continue
		}
		n.block(addr, other)
		n.block(other, addr)
	}
}

func (n *SimNetwork) block(from, to string) {
	if n.partition[from] == nil {
		n.partition[from] = make(map[string]bool)
	}
	n.partition[from][to] = true
}

// Close shuts the network down and waits for in-flight deliveries.
func (n *SimNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*simEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	n.wg.Wait()
}

// send routes a message through the network applying impairments.
func (n *SimNetwork) send(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.partition[msg.From] != nil && n.partition[msg.From][msg.To] {
		n.mu.Unlock()
		return nil // silently dropped, like a real partition
	}
	dst, ok := n.endpoints[msg.To]
	if !ok || dst.closed {
		n.mu.Unlock()
		return nil // unknown or closed receivers drop traffic
	}
	cond := n.conditions
	drop := cond.Loss > 0 && n.rng.Float64() < cond.Loss
	var delay time.Duration
	if cond.Delay > 0 || cond.Jitter > 0 {
		delay = cond.Delay
		if cond.Jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(cond.Jitter) + 1))
		}
	}
	if !drop {
		n.wg.Add(1)
	}
	n.mu.Unlock()

	if drop {
		return nil
	}
	deliver := func() {
		defer n.wg.Done()
		dst.deliver(msg)
	}
	if delay > 0 {
		time.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
	return nil
}

type simEndpoint struct {
	net    *SimNetwork
	addr   string
	ch     chan Message
	mu     sync.Mutex
	closed bool
}

var _ Endpoint = (*simEndpoint)(nil)

func (e *simEndpoint) Addr() string { return e.addr }

func (e *simEndpoint) Send(to string, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return e.net.send(Message{From: e.addr, To: to, Payload: cp})
}

func (e *simEndpoint) Receive() <-chan Message { return e.ch }

func (e *simEndpoint) deliver(msg Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.ch <- msg:
	default:
		// Receiver queue overflow behaves like packet loss.
	}
}

func (e *simEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.ch)
	return nil
}
