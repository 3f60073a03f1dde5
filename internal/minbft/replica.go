package minbft

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// ErrBadConfig is returned for an invalid replica configuration.
var ErrBadConfig = errors.New("minbft: bad config")

// ByzantineMode selects the adversarial behaviour of a compromised replica
// (§VIII-A: after compromising a replica the attacker chooses between
// participating, not participating, and participating with random messages).
type ByzantineMode int

// Byzantine behaviours.
const (
	// Honest follows the protocol.
	Honest ByzantineMode = iota
	// Silent drops all protocol activity (crash-like byzantine behaviour).
	Silent
	// Garbage participates with corrupted message contents.
	Garbage
)

// Config configures one MinBFT replica.
type Config struct {
	// ID is this replica's identity (must be a member).
	ID string
	// Members is the initial membership; order is canonicalized internally.
	Members []string
	// K is the number of simultaneous recoveries tolerated on top of f
	// (Prop. 1: N >= 2f + 1 + k). It lowers the tolerance threshold:
	// f = (N-1-K)/2.
	K int
	// Endpoint is this replica's transport attachment.
	Endpoint transport.Endpoint
	// USIG is this node's trusted counter.
	USIG *usig.USIG
	// Verifier validates peer UIs.
	Verifier *usig.Verifier
	// Registry validates client request signatures.
	Registry *replica.Registry
	// Store is the deterministic service state machine.
	Store *replica.KVStore
	// CheckpointInterval is cp of Table 8 (default 100).
	CheckpointInterval uint64
}

func (c *Config) validate() error {
	if c.ID == "" {
		return fmt.Errorf("%w: empty id", ErrBadConfig)
	}
	if len(c.Members) < 2 {
		return fmt.Errorf("%w: need >= 2 members, got %d", ErrBadConfig, len(c.Members))
	}
	found := false
	for _, m := range c.Members {
		if m == c.ID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("%w: id %q not in members", ErrBadConfig, c.ID)
	}
	if c.Endpoint == nil || c.USIG == nil || c.Verifier == nil || c.Registry == nil || c.Store == nil {
		return fmt.Errorf("%w: missing dependency", ErrBadConfig)
	}
	if c.K < 0 {
		return fmt.Errorf("%w: k = %d", ErrBadConfig, c.K)
	}
	return nil
}

// tickInterval is the shell's tick; the core's timeouts count ticks
// (requestTimeoutTicks).
const tickInterval = 5 * time.Millisecond

// Replica is one MinBFT replica: a goroutine that feeds the protocol core
// from the endpoint and a ticker, one event at a time, and performs the
// sends each event queues. Create with NewReplica, stop with Stop.
type Replica struct {
	ep transport.Endpoint

	mu   sync.Mutex // guards core
	core *core

	stop chan struct{}
	done chan struct{}
}

// NewReplica starts a replica's event loop.
func NewReplica(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Replica{
		ep:   cfg.Endpoint,
		core: newCore(cfg),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// Stop terminates the replica's event loop and waits for it to exit.
func (r *Replica) Stop() {
	select {
	case <-r.stop:
		return // already stopped
	default:
	}
	close(r.stop)
	<-r.done
}

// View returns the current view number.
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.view
}

// Members returns the current membership.
func (r *Replica) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.core.members...)
}

// Tolerance returns the current tolerance threshold f = (N-1-k)/2.
func (r *Replica) Tolerance() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.tolerance()
}

// SetByzantine switches the replica's behaviour (used by the attacker
// emulation; a real attacker controls the application domain directly).
func (r *Replica) SetByzantine(mode ByzantineMode) {
	r.step(func(c *core) { c.byzantine = mode })
}

// RequestStateSync asks peers for a snapshot at or beyond minSeq (used by
// joining and recovered replicas, Fig 17d-e).
func (r *Replica) RequestStateSync(minSeq uint64) {
	r.step(func(c *core) { c.requestStateSync(minSeq) })
}

// run is the replica's event loop.
func (r *Replica) run() {
	defer close(r.done)
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case msg, ok := <-r.ep.Receive():
			if !ok {
				return
			}
			r.step(func(c *core) { c.receive(msg.From, msg.Payload) })
		case <-ticker.C:
			r.step((*core).tick)
		}
	}
}

// step hands the core one event under the lock and performs the sends it
// queued outside the lock.
func (r *Replica) step(event func(*core)) {
	r.mu.Lock()
	event(r.core)
	sends := r.core.takeSends()
	r.mu.Unlock()
	for _, s := range sends {
		_ = r.ep.Send(s.to, s.data)
	}
}
