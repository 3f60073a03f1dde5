package minbft

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
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
	// RequestTimeout is how long a replica waits for a pending request to
	// execute before suspecting the leader (default 500ms).
	RequestTimeout time.Duration
	// CheckpointInterval is cp of Table 8 (default 100).
	CheckpointInterval uint64
	// TickInterval drives the internal timer loop (default 10ms).
	TickInterval time.Duration
	// Logger receives protocol traces; nil disables logging.
	Logger *log.Logger
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

// pendingEntry tracks one consensus slot.
type pendingEntry struct {
	prepare *prepareMsg
	digest  [32]byte
	commits map[string]bool // replicas that committed (leader implicit)
}

// Replica is one MinBFT replica. Create with NewReplica, stop with Stop.
type Replica struct {
	cfg Config

	mu       sync.Mutex
	view     uint64
	members  []string
	lastExec uint64
	// entries maps seq -> slot state for the current view.
	entries map[uint64]*pendingEntry
	// nextPrepareSeq is the leader's next sequence to assign.
	nextPrepareSeq uint64
	// expectedSeq is a follower's next prepare sequence from the leader.
	expectedSeq uint64
	// peerCounters tracks the highest verified UI counter per sender for
	// FIFO processing (the MinBFT anti-equivocation rule).
	peerCounters map[string]uint64
	// pendingByPeer buffers out-of-order messages per sender.
	pendingByPeer map[string]map[uint64]*inboundMsg
	// pendingRequests holds verified client requests awaiting execution,
	// keyed by request ID, with arrival time for timeout tracking.
	pendingRequests map[string]*trackedRequest
	executedReqs    map[string]string // request ID -> result (dedup + re-reply)
	// view change state
	viewChangeVotes map[uint64]map[string]*viewChangeMsg
	inViewChange    bool
	// checkpoints per seq: replica -> digest
	checkpointVotes map[uint64]map[string][32]byte
	stableSeq       uint64
	// stateResponses collects snapshot candidates during state transfer.
	stateResponses map[stateVoteKey]map[string]*stateResponseMsg
	// byzantine behaviour (driven by the emulation/attacker)
	byzantine ByzantineMode

	stop chan struct{}
	done chan struct{}
}

type trackedRequest struct {
	req      *replica.Request
	deadline time.Time
	client   string
}

type inboundMsg struct {
	envType msgType
	raw     json.RawMessage
}

// NewReplica starts a replica's event loop.
func NewReplica(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 500 * time.Millisecond
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 100
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	members := append([]string(nil), cfg.Members...)
	sort.Strings(members)
	r := &Replica{
		cfg:             cfg,
		members:         members,
		entries:         make(map[uint64]*pendingEntry),
		nextPrepareSeq:  1,
		expectedSeq:     1,
		peerCounters:    make(map[string]uint64),
		pendingByPeer:   make(map[string]map[uint64]*inboundMsg),
		pendingRequests: make(map[string]*trackedRequest),
		executedReqs:    make(map[string]string),
		viewChangeVotes: make(map[uint64]map[string]*viewChangeMsg),
		checkpointVotes: make(map[uint64]map[string][32]byte),
		stop:            make(chan struct{}),
		done:            make(chan struct{}),
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

// ID returns the replica's identity.
func (r *Replica) ID() string { return r.cfg.ID }

// View returns the current view number.
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Members returns the current membership.
func (r *Replica) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.members...)
}

// LastExecuted returns the highest executed consensus sequence.
func (r *Replica) LastExecuted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastExec
}

// SetByzantine switches the replica's behaviour (used by the attacker
// emulation; a real attacker controls the application domain directly).
func (r *Replica) SetByzantine(mode ByzantineMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byzantine = mode
}

// Tolerance returns the current tolerance threshold f = (N-1-k)/2.
func (r *Replica) Tolerance() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.toleranceLocked()
}

func (r *Replica) toleranceLocked() int {
	f := (len(r.members) - 1 - r.cfg.K) / 2
	if f < 0 {
		f = 0
	}
	return f
}

// leaderLocked returns the current view's leader.
func (r *Replica) leaderLocked() string {
	return r.members[int(r.view)%len(r.members)]
}

// Leader returns the current leader's ID.
func (r *Replica) Leader() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderLocked()
}

// run is the replica's event loop.
func (r *Replica) run() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case msg, ok := <-r.cfg.Endpoint.Receive():
			if !ok {
				return
			}
			r.handleRaw(msg)
		case <-ticker.C:
			r.onTick()
		}
	}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("[%s v%d] "+format, append([]any{r.cfg.ID, r.View()}, args...)...)
	}
}

// handleRaw decodes an envelope and dispatches it.
func (r *Replica) handleRaw(msg transport.Message) {
	r.mu.Lock()
	if r.byzantine == Silent {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	var env envelope
	if err := json.Unmarshal(msg.Payload, &env); err != nil {
		return // garbage from the network or a byzantine peer
	}
	r.dispatch(env.Type, env.Data)
}

// dispatch routes one decoded message. UI-carrying messages go through the
// per-sender FIFO gate first.
func (r *Replica) dispatch(t msgType, data json.RawMessage) {
	switch t {
	case typeRequest:
		var req replica.Request
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		r.onRequest(&req)
	case typePrepare:
		var p prepareMsg
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		r.fifoGate(p.UI, t, data, func() { r.onPrepare(&p) })
	case typeCommit:
		var c commitMsg
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		r.fifoGate(c.UI, t, data, func() { r.onCommit(&c) })
	case typeCheckpoint:
		var c checkpointMsg
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		r.fifoGate(c.UI, t, data, func() { r.onCheckpoint(&c) })
	case typeViewChange:
		var v viewChangeMsg
		if err := json.Unmarshal(data, &v); err != nil {
			return
		}
		r.fifoGate(v.UI, t, data, func() { r.onViewChange(&v) })
	case typeNewView:
		var n newViewMsg
		if err := json.Unmarshal(data, &n); err != nil {
			return
		}
		r.fifoGate(n.UI, t, data, func() { r.onNewView(&n) })
	case typeStateRequest:
		var s stateRequestMsg
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		r.onStateRequest(&s)
	case typeStateResponse:
		var s stateResponseMsg
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		r.onStateResponse(&s)
	}
}

// fifoGate verifies a message's UI and enforces per-sender FIFO counter
// order (the MinBFT rule that prevents equivocation and message reordering
// by byzantine senders). Messages arriving early are buffered; handle runs
// for the message and any buffered successors.
func (r *Replica) fifoGate(ui usig.UI, t msgType, raw json.RawMessage, handle func()) {
	payload, ok := signedPayloadFor(t, raw)
	if !ok {
		return
	}
	if err := r.cfg.Verifier.VerifyUI(payload, ui); err != nil {
		r.logf("drop %s from %s: %v", t, ui.ReplicaID, err)
		return
	}
	r.mu.Lock()
	last := r.peerCounters[ui.ReplicaID]
	switch {
	case ui.Counter <= last:
		r.mu.Unlock()
		return // replayed or superseded
	case ui.Counter == last+1:
		r.peerCounters[ui.ReplicaID] = ui.Counter
		r.mu.Unlock()
		handle()
		r.drainPending(ui.ReplicaID)
	default:
		// Buffer until the gap fills.
		if r.pendingByPeer[ui.ReplicaID] == nil {
			r.pendingByPeer[ui.ReplicaID] = make(map[uint64]*inboundMsg)
		}
		if len(r.pendingByPeer[ui.ReplicaID]) < 1024 {
			r.pendingByPeer[ui.ReplicaID][ui.Counter] = &inboundMsg{envType: t, raw: raw}
		}
		r.mu.Unlock()
	}
}

// drainPending processes buffered messages that became in-order.
func (r *Replica) drainPending(peer string) {
	for {
		r.mu.Lock()
		next := r.peerCounters[peer] + 1
		buf := r.pendingByPeer[peer]
		msg, ok := buf[next]
		if !ok {
			r.mu.Unlock()
			return
		}
		delete(buf, next)
		r.peerCounters[peer] = next
		r.mu.Unlock()
		r.redispatch(msg)
	}
}

// redispatch handles a buffered message whose counter gate already passed.
func (r *Replica) redispatch(msg *inboundMsg) {
	switch msg.envType {
	case typePrepare:
		var p prepareMsg
		if json.Unmarshal(msg.raw, &p) == nil {
			r.onPrepare(&p)
		}
	case typeCommit:
		var c commitMsg
		if json.Unmarshal(msg.raw, &c) == nil {
			r.onCommit(&c)
		}
	case typeCheckpoint:
		var c checkpointMsg
		if json.Unmarshal(msg.raw, &c) == nil {
			r.onCheckpoint(&c)
		}
	case typeViewChange:
		var v viewChangeMsg
		if json.Unmarshal(msg.raw, &v) == nil {
			r.onViewChange(&v)
		}
	case typeNewView:
		var n newViewMsg
		if json.Unmarshal(msg.raw, &n) == nil {
			r.onNewView(&n)
		}
	}
}

// signedPayloadFor recomputes the UI-certified payload from raw contents.
func signedPayloadFor(t msgType, raw json.RawMessage) ([]byte, bool) {
	switch t {
	case typePrepare:
		var p prepareMsg
		if json.Unmarshal(raw, &p) != nil || p.Request == nil {
			return nil, false
		}
		return p.signedPayload(), true
	case typeCommit:
		var c commitMsg
		if json.Unmarshal(raw, &c) != nil {
			return nil, false
		}
		return c.signedPayload(), true
	case typeCheckpoint:
		var c checkpointMsg
		if json.Unmarshal(raw, &c) != nil {
			return nil, false
		}
		return c.signedPayload(), true
	case typeViewChange:
		var v viewChangeMsg
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		return v.signedPayload(), true
	case typeNewView:
		var n newViewMsg
		if json.Unmarshal(raw, &n) != nil {
			return nil, false
		}
		return n.signedPayload(), true
	default:
		return nil, false
	}
}

// broadcast sends a message to all current members except self.
func (r *Replica) broadcast(t msgType, msg any) {
	data, err := encode(t, msg)
	if err != nil {
		r.logf("encode %s: %v", t, err)
		return
	}
	r.mu.Lock()
	members := append([]string(nil), r.members...)
	mode := r.byzantine
	r.mu.Unlock()
	if mode == Silent {
		return
	}
	if mode == Garbage {
		// A compromised replica ships corrupted bytes; honest receivers
		// reject them at the UI check.
		data = append([]byte("garbage:"), data...)
	}
	for _, m := range members {
		if m == r.cfg.ID {
			continue
		}
		_ = r.cfg.Endpoint.Send(m, data)
	}
}

// sendTo sends a message to one peer.
func (r *Replica) sendTo(peer string, t msgType, msg any) {
	data, err := encode(t, msg)
	if err != nil {
		return
	}
	r.mu.Lock()
	mode := r.byzantine
	r.mu.Unlock()
	if mode == Silent {
		return
	}
	if mode == Garbage {
		data = append([]byte("garbage:"), data...)
	}
	_ = r.cfg.Endpoint.Send(peer, data)
}

// onRequest handles a signed client request (Fig 17a, REQUEST).
func (r *Replica) onRequest(req *replica.Request) {
	if err := r.cfg.Registry.Verify(req); err != nil {
		r.logf("reject request %s: %v", req.ID(), err)
		return
	}
	id := req.ID()
	r.mu.Lock()
	if result, done := r.executedReqs[id]; done {
		// Re-reply for retransmitted requests.
		r.mu.Unlock()
		r.sendTo(req.ClientID, typeReply, replica.Reply{
			ReplicaID: r.cfg.ID,
			RequestID: id,
			Result:    result,
		})
		return
	}
	if _, pending := r.pendingRequests[id]; pending {
		r.mu.Unlock()
		return
	}
	r.pendingRequests[id] = &trackedRequest{
		req:      req,
		deadline: time.Now().Add(r.cfg.RequestTimeout),
		client:   req.ClientID,
	}
	isLeader := r.leaderLocked() == r.cfg.ID && !r.inViewChange
	r.mu.Unlock()

	if isLeader {
		r.propose(req)
	}
}

// propose assigns the next sequence number under the leader's UI and
// broadcasts the PREPARE.
func (r *Replica) propose(req *replica.Request) {
	r.mu.Lock()
	if r.leaderLocked() != r.cfg.ID || r.inViewChange {
		r.mu.Unlock()
		return
	}
	seq := r.nextPrepareSeq
	r.nextPrepareSeq++
	view := r.view
	r.mu.Unlock()

	p := &prepareMsg{View: view, Seq: seq, Request: req}
	ui, err := r.cfg.USIG.CreateUI(p.signedPayload())
	if err != nil {
		r.logf("usig: %v", err)
		return
	}
	p.UI = ui

	// The leader accepts its own prepare immediately.
	r.acceptPrepare(p, true)
	r.broadcast(typePrepare, p)
}

// onPrepare handles the leader's PREPARE at a follower.
func (r *Replica) onPrepare(p *prepareMsg) {
	if p.Request == nil {
		return
	}
	if err := r.cfg.Registry.Verify(p.Request); err != nil {
		r.logf("prepare carries bad request: %v", err)
		return
	}
	r.mu.Lock()
	if p.View != r.view || r.inViewChange {
		r.mu.Unlock()
		return
	}
	if p.UI.ReplicaID != r.leaderLocked() {
		r.mu.Unlock()
		return // prepares must come from the current leader
	}
	if p.Seq != r.expectedSeq {
		// A correct leader assigns contiguous sequence numbers; anything
		// else is stale or byzantine.
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	r.acceptPrepare(p, false)

	// Send COMMIT (Fig 17a).
	c := &commitMsg{
		View:          p.View,
		Seq:           p.Seq,
		ReplicaID:     r.cfg.ID,
		PrepareDigest: prepareDigest(p),
	}
	ui, err := r.cfg.USIG.CreateUI(c.signedPayload())
	if err != nil {
		return
	}
	c.UI = ui
	r.recordCommit(c.Seq, c.PrepareDigest, r.cfg.ID)
	r.broadcast(typeCommit, c)
	r.tryExecute()
}

// acceptPrepare installs the slot entry.
func (r *Replica) acceptPrepare(p *prepareMsg, leader bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[p.Seq]
	if e == nil {
		e = &pendingEntry{commits: make(map[string]bool)}
		r.entries[p.Seq] = e
	}
	if e.prepare != nil {
		return
	}
	e.prepare = p
	e.digest = prepareDigest(p)
	// The leader's prepare counts as its commit.
	e.commits[p.UI.ReplicaID] = true
	if !leader && p.Seq == r.expectedSeq {
		r.expectedSeq++
	}
	// Track the request for timeout purposes if we hadn't seen it.
	id := p.Request.ID()
	if _, done := r.executedReqs[id]; !done {
		if _, pending := r.pendingRequests[id]; !pending {
			r.pendingRequests[id] = &trackedRequest{
				req:      p.Request,
				deadline: time.Now().Add(r.cfg.RequestTimeout),
				client:   p.Request.ClientID,
			}
		}
	}
}

// onCommit handles a COMMIT vote.
func (r *Replica) onCommit(c *commitMsg) {
	r.mu.Lock()
	if c.View != r.view || r.inViewChange {
		r.mu.Unlock()
		return
	}
	if c.UI.ReplicaID != c.ReplicaID {
		r.mu.Unlock()
		return // commit must be certified by its claimed sender
	}
	r.mu.Unlock()
	r.recordCommit(c.Seq, c.PrepareDigest, c.ReplicaID)
	r.tryExecute()
}

// recordCommit registers a commit vote for a slot.
func (r *Replica) recordCommit(seq uint64, digest [32]byte, from string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[seq]
	if e == nil {
		e = &pendingEntry{commits: make(map[string]bool)}
		r.entries[seq] = e
	}
	if e.prepare != nil && e.digest != digest {
		return // commit for a different prepare; ignore
	}
	e.commits[from] = true
}

// tryExecute executes committed slots in sequence order (Safety).
func (r *Replica) tryExecute() {
	for {
		r.mu.Lock()
		next := r.lastExec + 1
		e := r.entries[next]
		quorum := r.toleranceLocked() + 1
		if e == nil || e.prepare == nil || len(e.commits) < quorum {
			r.mu.Unlock()
			return
		}
		req := e.prepare.Request
		delete(r.entries, next)
		r.lastExec = next
		r.mu.Unlock()

		r.execute(next, req)
	}
}

// execute applies a request to the state machine, processes reconfiguration
// side effects, replies to the client, and emits checkpoints.
func (r *Replica) execute(seq uint64, req *replica.Request) {
	id := req.ID()
	result, err := r.cfg.Store.Apply(req)
	if err != nil {
		result = "error: " + err.Error()
	}

	r.mu.Lock()
	r.executedReqs[id] = result
	delete(r.pendingRequests, id)
	r.mu.Unlock()

	if req.Op.Key == ConfigKey && req.Op.Type == replica.OpWrite {
		r.applyConfigOp(req.Op.Value)
	}

	r.sendTo(req.ClientID, typeReply, replica.Reply{
		ReplicaID: r.cfg.ID,
		RequestID: id,
		Result:    result,
	})

	if seq%r.cfg.CheckpointInterval == 0 {
		r.emitCheckpoint(seq)
	}
}

// onTick drives timeouts: request deadlines trigger view changes, and the
// leader re-proposes requests it has not ordered yet.
func (r *Replica) onTick() {
	now := time.Now()
	r.mu.Lock()
	if r.byzantine == Silent {
		r.mu.Unlock()
		return
	}
	isLeader := r.leaderLocked() == r.cfg.ID && !r.inViewChange
	var expired bool
	var toPropose []*replica.Request
	proposed := make(map[uint64]bool)
	for _, e := range r.entries {
		if e.prepare != nil {
			proposed[e.prepare.Seq] = true
		}
	}
	for id, tr := range r.pendingRequests {
		if isLeader {
			// A leader that took over mid-stream proposes anything pending
			// that is not yet in flight.
			inFlight := false
			for _, e := range r.entries {
				if e.prepare != nil && e.prepare.Request.ID() == id {
					inFlight = true
					break
				}
			}
			if !inFlight {
				toPropose = append(toPropose, tr.req)
				tr.deadline = now.Add(r.cfg.RequestTimeout)
			}
			continue
		}
		if now.After(tr.deadline) {
			expired = true
			tr.deadline = now.Add(r.cfg.RequestTimeout) // back off
		}
	}
	r.mu.Unlock()

	for _, req := range toPropose {
		r.propose(req)
	}
	if expired {
		r.startViewChange()
	}
}
