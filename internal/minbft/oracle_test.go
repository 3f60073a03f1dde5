package minbft

// The oracle of the replica core: the replica as it was before the core was
// split out, with its own goroutine, lock and clock. TestCoreMatchesOracle
// drives both through the same tick-free schedules and requires the same
// sends, byte for byte and in order, and the same store digests.

import (
	"bytes"
	"encoding/json"
	"log"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// oracleConfig is Config with the three fields the core dropped.
type oracleConfig struct {
	Config
	RequestTimeout time.Duration
	TickInterval   time.Duration
	Logger         *log.Logger
}

// captureEndpoint records an oracle replica's sends in order.
type captureEndpoint struct {
	id   string
	sent []outbound
}

func (e *captureEndpoint) Addr() string { return e.id }

func (e *captureEndpoint) Send(to string, payload []byte) error {
	e.sent = append(e.sent, outbound{to: to, data: payload})
	return nil
}

func (e *captureEndpoint) Receive() <-chan transport.Message { return nil }

func (e *captureEndpoint) Close() error { return nil }

// oracleReplica is the locked, goroutine-driven replica the core replaced,
// kept verbatim but for its names. Create with newOracleReplica.
type oracleReplica struct {
	cfg oracleConfig

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
	pendingRequests map[string]*oracleTracked
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

type oracleTracked struct {
	req      *replica.Request
	deadline time.Time
	client   string
}

type inboundMsg struct {
	envType msgType
	raw     json.RawMessage
}

// newOracleReplica builds the replica without starting its event loop: the
// test drives it synchronously through handleRaw.
func newOracleReplica(cfg oracleConfig) (*oracleReplica, error) {
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
	r := &oracleReplica{
		cfg:             cfg,
		members:         members,
		entries:         make(map[uint64]*pendingEntry),
		nextPrepareSeq:  1,
		expectedSeq:     1,
		peerCounters:    make(map[string]uint64),
		pendingByPeer:   make(map[string]map[uint64]*inboundMsg),
		pendingRequests: make(map[string]*oracleTracked),
		executedReqs:    make(map[string]string),
		viewChangeVotes: make(map[uint64]map[string]*viewChangeMsg),
		checkpointVotes: make(map[uint64]map[string][32]byte),
		stop:            make(chan struct{}),
		done:            make(chan struct{}),
	}
	return r, nil
}

// Stop terminates the replica's event loop and waits for it to exit.
func (r *oracleReplica) Stop() {
	select {
	case <-r.stop:
		return // already stopped
	default:
	}
	close(r.stop)
	<-r.done
}

// ID returns the replica's identity.
func (r *oracleReplica) ID() string { return r.cfg.ID }

// View returns the current view number.
func (r *oracleReplica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Members returns the current membership.
func (r *oracleReplica) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.members...)
}

// LastExecuted returns the highest executed consensus sequence.
func (r *oracleReplica) LastExecuted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastExec
}

// SetByzantine switches the replica's behaviour (used by the attacker
// emulation; a real attacker controls the application domain directly).
func (r *oracleReplica) SetByzantine(mode ByzantineMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byzantine = mode
}

// Tolerance returns the current tolerance threshold f = (N-1-k)/2.
func (r *oracleReplica) Tolerance() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.toleranceLocked()
}

func (r *oracleReplica) toleranceLocked() int {
	f := (len(r.members) - 1 - r.cfg.K) / 2
	if f < 0 {
		f = 0
	}
	return f
}

// leaderLocked returns the current view's leader.
func (r *oracleReplica) leaderLocked() string {
	return r.members[int(r.view)%len(r.members)]
}

// Leader returns the current leader's ID.
func (r *oracleReplica) Leader() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderLocked()
}

// run is the replica's event loop.
func (r *oracleReplica) run() {
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

func (r *oracleReplica) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("[%s v%d] "+format, append([]any{r.cfg.ID, r.View()}, args...)...)
	}
}

// handleRaw decodes an envelope and dispatches it.
func (r *oracleReplica) handleRaw(msg transport.Message) {
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
func (r *oracleReplica) dispatch(t msgType, data json.RawMessage) {
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
func (r *oracleReplica) fifoGate(ui usig.UI, t msgType, raw json.RawMessage, handle func()) {
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
func (r *oracleReplica) drainPending(peer string) {
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
func (r *oracleReplica) redispatch(msg *inboundMsg) {
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
func (r *oracleReplica) broadcast(t msgType, msg any) {
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
func (r *oracleReplica) sendTo(peer string, t msgType, msg any) {
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
func (r *oracleReplica) onRequest(req *replica.Request) {
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
	r.pendingRequests[id] = &oracleTracked{
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
func (r *oracleReplica) propose(req *replica.Request) {
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
func (r *oracleReplica) onPrepare(p *prepareMsg) {
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
func (r *oracleReplica) acceptPrepare(p *prepareMsg, leader bool) {
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
			r.pendingRequests[id] = &oracleTracked{
				req:      p.Request,
				deadline: time.Now().Add(r.cfg.RequestTimeout),
				client:   p.Request.ClientID,
			}
		}
	}
}

// onCommit handles a COMMIT vote.
func (r *oracleReplica) onCommit(c *commitMsg) {
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
func (r *oracleReplica) recordCommit(seq uint64, digest [32]byte, from string) {
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
func (r *oracleReplica) tryExecute() {
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
func (r *oracleReplica) execute(seq uint64, req *replica.Request) {
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
func (r *oracleReplica) onTick() {
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

// startViewChange suspects the current leader and votes for view+1
// (Fig 17b).
func (r *oracleReplica) startViewChange() {
	r.mu.Lock()
	if r.inViewChange {
		r.mu.Unlock()
		return
	}
	r.inViewChange = true
	target := r.view + 1
	lastExec := r.lastExec
	r.mu.Unlock()

	r.logf("view change -> %d", target)
	v := &viewChangeMsg{ReplicaID: r.cfg.ID, NewView: target, LastExec: lastExec}
	ui, err := r.cfg.USIG.CreateUI(v.signedPayload())
	if err != nil {
		return
	}
	v.UI = ui
	r.recordViewChange(v)
	r.broadcast(typeViewChange, v)
	r.maybeInstallView(target)
}

// onViewChange handles a peer's VIEW-CHANGE vote.
func (r *oracleReplica) onViewChange(v *viewChangeMsg) {
	r.mu.Lock()
	if v.NewView <= r.view {
		r.mu.Unlock()
		return
	}
	if v.UI.ReplicaID != v.ReplicaID {
		r.mu.Unlock()
		return
	}
	quorum := r.toleranceLocked() + 1
	r.mu.Unlock()

	r.recordViewChange(v)

	// Join the view change once f+1 distinct replicas vote for it — this
	// replica cannot be left behind even if its own timer never fired.
	r.mu.Lock()
	votes := len(r.viewChangeVotes[v.NewView])
	joined := r.inViewChange
	r.mu.Unlock()
	if votes >= quorum && !joined {
		r.mu.Lock()
		r.inViewChange = true
		lastExec := r.lastExec
		r.mu.Unlock()
		own := &viewChangeMsg{ReplicaID: r.cfg.ID, NewView: v.NewView, LastExec: lastExec}
		if ui, err := r.cfg.USIG.CreateUI(own.signedPayload()); err == nil {
			own.UI = ui
			r.recordViewChange(own)
			r.broadcast(typeViewChange, own)
		}
	}
	r.maybeInstallView(v.NewView)
}

// recordViewChange stores a vote.
func (r *oracleReplica) recordViewChange(v *viewChangeMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.viewChangeVotes[v.NewView] == nil {
		r.viewChangeVotes[v.NewView] = make(map[string]*viewChangeMsg)
	}
	r.viewChangeVotes[v.NewView][v.ReplicaID] = v
}

// maybeInstallView lets the new view's leader broadcast NEW-VIEW once it
// holds f+1 votes (including its own).
func (r *oracleReplica) maybeInstallView(target uint64) {
	r.mu.Lock()
	if target <= r.view {
		r.mu.Unlock()
		return
	}
	newLeader := r.members[int(target)%len(r.members)]
	if newLeader != r.cfg.ID {
		r.mu.Unlock()
		return
	}
	votes := r.viewChangeVotes[target]
	quorum := r.toleranceLocked() + 1
	if len(votes) < quorum {
		r.mu.Unlock()
		return
	}
	maxExec := uint64(0)
	proof := make([]viewChangeMsg, 0, len(votes))
	for _, v := range votes {
		proof = append(proof, *v)
		if v.LastExec > maxExec {
			maxExec = v.LastExec
		}
	}
	sort.Slice(proof, func(i, j int) bool { return proof[i].ReplicaID < proof[j].ReplicaID })
	if r.lastExec > maxExec {
		maxExec = r.lastExec
	}
	r.mu.Unlock()

	n := &newViewMsg{View: target, LeaderID: r.cfg.ID, MaxExec: maxExec, Proof: proof}
	ui, err := r.cfg.USIG.CreateUI(n.signedPayload())
	if err != nil {
		return
	}
	n.UI = ui
	r.logf("installing view %d (maxExec %d)", target, maxExec)
	r.adoptView(n)
	r.broadcast(typeNewView, n)
}

// onNewView handles the NEW-VIEW installation message.
func (r *oracleReplica) onNewView(n *newViewMsg) {
	r.mu.Lock()
	if n.View <= r.view {
		r.mu.Unlock()
		return
	}
	expectedLeader := r.members[int(n.View)%len(r.members)]
	if n.UI.ReplicaID != expectedLeader || n.LeaderID != expectedLeader {
		r.mu.Unlock()
		return
	}
	quorum := r.toleranceLocked() + 1
	r.mu.Unlock()

	// Verify the proof: f+1 distinct valid view-change votes for this view.
	valid := make(map[string]bool)
	for i := range n.Proof {
		v := n.Proof[i]
		if v.NewView != n.View || v.UI.ReplicaID != v.ReplicaID {
			continue
		}
		if err := r.cfg.Verifier.VerifyUI(v.signedPayload(), v.UI); err != nil {
			continue
		}
		valid[v.ReplicaID] = true
	}
	if len(valid) < quorum {
		r.logf("reject new-view %d: only %d valid votes", n.View, len(valid))
		return
	}
	r.adoptView(n)
}

// adoptView switches to the new view and re-tracks pending requests.
func (r *oracleReplica) adoptView(n *newViewMsg) {
	r.mu.Lock()
	if n.View <= r.view {
		r.mu.Unlock()
		return
	}
	r.view = n.View
	r.inViewChange = false
	r.entries = make(map[uint64]*pendingEntry)
	start := n.MaxExec
	if r.lastExec > start {
		start = r.lastExec
	}
	r.nextPrepareSeq = start + 1
	r.expectedSeq = start + 1
	for view := range r.viewChangeVotes {
		if view <= n.View {
			delete(r.viewChangeVotes, view)
		}
	}
	behind := r.lastExec < n.MaxExec
	r.mu.Unlock()

	if behind {
		r.requestStateSyncLocked(n.MaxExec)
	}
}

// emitCheckpoint broadcasts this replica's state digest (Fig 17c).
func (r *oracleReplica) emitCheckpoint(seq uint64) {
	c := &checkpointMsg{ReplicaID: r.cfg.ID, Seq: seq, Digest: r.cfg.Store.Digest()}
	ui, err := r.cfg.USIG.CreateUI(c.signedPayload())
	if err != nil {
		return
	}
	c.UI = ui
	r.recordCheckpoint(c)
	r.broadcast(typeCheckpoint, c)
}

// onCheckpoint handles a peer's checkpoint.
func (r *oracleReplica) onCheckpoint(c *checkpointMsg) {
	if c.UI.ReplicaID != c.ReplicaID {
		return
	}
	r.recordCheckpoint(c)
	// A replica that observes a stable checkpoint far ahead of its own
	// execution is missing state (e.g. it joined or recovered); catch up.
	r.mu.Lock()
	behind := c.Seq > r.lastExec && r.stableSeq >= c.Seq
	target := c.Seq
	r.mu.Unlock()
	if behind {
		r.requestStateSyncLocked(target)
	}
}

// recordCheckpoint stores a checkpoint vote and advances the stable
// checkpoint on f+1 matching digests.
func (r *oracleReplica) recordCheckpoint(c *checkpointMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.Seq <= r.stableSeq {
		return
	}
	if r.checkpointVotes[c.Seq] == nil {
		r.checkpointVotes[c.Seq] = make(map[string][32]byte)
	}
	r.checkpointVotes[c.Seq][c.ReplicaID] = c.Digest
	// Count agreement on the most common digest.
	counts := make(map[[32]byte]int)
	for _, d := range r.checkpointVotes[c.Seq] {
		counts[d]++
	}
	quorum := r.toleranceLocked() + 1
	for _, n := range counts {
		if n >= quorum {
			r.stableSeq = c.Seq
			// Garbage-collect old votes.
			for seq := range r.checkpointVotes {
				if seq <= r.stableSeq {
					delete(r.checkpointVotes, seq)
				}
			}
			break
		}
	}
}

// StableCheckpoint returns the highest sequence with f+1 matching digests.
func (r *oracleReplica) StableCheckpoint() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stableSeq
}

// RequestStateSync asks peers for a snapshot at or beyond minSeq (used by
// joining and recovered replicas, Fig 17d-e).
func (r *oracleReplica) RequestStateSync(minSeq uint64) {
	r.requestStateSyncLocked(minSeq)
}

func (r *oracleReplica) requestStateSyncLocked(minSeq uint64) {
	req := &stateRequestMsg{ReplicaID: r.cfg.ID, MinSeq: minSeq}
	r.broadcast(typeStateRequest, req)
}

// onStateRequest serves a snapshot (STATE, Fig 17d).
func (r *oracleReplica) onStateRequest(s *stateRequestMsg) {
	r.mu.Lock()
	lastExec := r.lastExec
	view := r.view
	members := append([]string(nil), r.members...)
	r.mu.Unlock()
	if lastExec < s.MinSeq {
		return // cannot help
	}
	snapshot, err := r.cfg.Store.Snapshot()
	if err != nil {
		return
	}
	resp := &stateResponseMsg{
		ReplicaID: r.cfg.ID,
		Seq:       lastExec,
		View:      view,
		Digest:    r.cfg.Store.Digest(),
		Snapshot:  snapshot,
		Members:   members,
	}
	r.sendTo(s.ReplicaID, typeStateResponse, resp)
}

// newProbeStore builds a scratch store for snapshot digest verification.
func newProbeStore() *replica.KVStore { return replica.NewKVStore() }

// onStateResponse collects snapshots and installs one once f+1 replicas
// agree on (seq, digest). The f+1 rule mirrors §VII-C: a recovered replica
// initializes its state from f+1 identical copies.
func (r *oracleReplica) onStateResponse(s *stateResponseMsg) {
	r.mu.Lock()
	if s.Seq <= r.lastExec {
		r.mu.Unlock()
		return
	}
	if r.stateResponses == nil {
		r.stateResponses = make(map[stateVoteKey]map[string]*stateResponseMsg)
	}
	key := stateVoteKey{seq: s.Seq, digest: s.Digest}
	if r.stateResponses[key] == nil {
		r.stateResponses[key] = make(map[string]*stateResponseMsg)
	}
	r.stateResponses[key][s.ReplicaID] = s
	quorum := r.toleranceLocked() + 1
	votes := len(r.stateResponses[key])
	r.mu.Unlock()

	if votes < quorum {
		return
	}
	// Verify the snapshot digest matches before installing.
	probe := oracleStoreDigest(s.Snapshot)
	if probe == nil || !bytes.Equal(probe, s.Digest[:]) {
		r.logf("state response digest mismatch from %s", s.ReplicaID)
		return
	}
	if err := r.cfg.Store.Restore(s.Snapshot); err != nil {
		r.logf("restore: %v", err)
		return
	}
	r.mu.Lock()
	r.lastExec = s.Seq
	if s.View > r.view {
		r.view = s.View
		r.inViewChange = false
	}
	if len(s.Members) >= 2 {
		members := append([]string(nil), s.Members...)
		sort.Strings(members)
		r.members = members
	}
	r.entries = make(map[uint64]*pendingEntry)
	r.nextPrepareSeq = s.Seq + 1
	r.expectedSeq = s.Seq + 1
	r.stateResponses = nil
	r.mu.Unlock()
	r.logf("state transfer complete at seq %d", s.Seq)
}

// oracleStoreDigest computes the digest a fresh store would have after
// restoring the snapshot.
func oracleStoreDigest(snapshot []byte) []byte {
	probe := newProbeStore()
	if err := probe.Restore(snapshot); err != nil {
		return nil
	}
	d := probe.Digest()
	return d[:]
}

// applyConfigOp executes a reconfiguration op that was ordered through
// consensus (Fig 17 e-f). All honest replicas apply it at the same sequence
// number, so membership changes deterministically.
func (r *oracleReplica) applyConfigOp(value string) {
	var op configOp
	if err := json.Unmarshal([]byte(value), &op); err != nil {
		r.logf("bad config op: %v", err)
		return
	}
	r.mu.Lock()
	oldLeader := r.leaderLocked()
	switch op.Action {
	case "join":
		present := false
		for _, m := range r.members {
			if m == op.NodeID {
				present = true
			}
		}
		if !present {
			r.members = append(r.members, op.NodeID)
			sort.Strings(r.members)
		}
	case "evict":
		out := r.members[:0]
		for _, m := range r.members {
			if m != op.NodeID {
				out = append(out, m)
			}
		}
		r.members = out
	}
	leaderEvicted := op.Action == "evict" && op.NodeID == oldLeader
	r.mu.Unlock()
	r.logf("config %s %s -> members %v", op.Action, op.NodeID, r.Members())

	if leaderEvicted {
		// The evicted node can no longer lead; move to the next view
		// (Fig 17f: EVICT triggers NEW-VIEW).
		r.startViewChange()
	}
}

// TestCoreMatchesOracle drives the core and the oracle replica through the
// same tick-free schedules — four replicas (f = 1) and a joiner, reordered,
// dropped and duplicated deliveries, Garbage and Silent members, two
// clients and one join or evict — and requires every event to make both
// send the same bytes in the same order and leave the same store digest.
func TestCoreMatchesOracle(t *testing.T) { seedRange(t, raceTrim(200), matchOracle) }

func matchOracle(t *testing.T, seed int64) {
	g := newGroup(t, seed, 4, 0)
	g.loss, g.dup = 0.05, 0.05
	// r4 runs from the start and is a member once a join commits.
	g.members = append(g.members, "r4")
	u, err := usig.NewHMAC("r4", clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	g.start("r4", u)
	g.members = g.members[:4]

	oracles := make(map[string]*oracleReplica)
	for _, id := range g.ids {
		c := g.cores[id]
		u, err := usig.NewHMAC(id, clusterKey)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Members, cfg.USIG, cfg.Store, cfg.Endpoint = c.members, u, replica.NewKVStore(), &captureEndpoint{id: id}
		o, err := newOracleReplica(oracleConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		oracles[id] = o
	}
	for _, id := range []string{"r1", "r2", "r3"} {
		mode := []ByzantineMode{Honest, Honest, Garbage, Silent}[g.rng.Intn(4)]
		g.cores[id].byzantine = mode
		oracles[id].SetByzantine(mode)
	}
	g.received = func(m inFlight, sends []outbound) {
		to, payload := m.to, m.data
		o := oracles[to]
		o.handleRaw(transport.Message{To: to, Payload: payload})
		ep := o.cfg.Endpoint.(*captureEndpoint)
		if !slices.EqualFunc(sends, ep.sent, func(a, b outbound) bool { return a.to == b.to && bytes.Equal(a.data, b.data) }) {
			g.fatalf("%s sent %d messages where the oracle sent %d, or other bytes, for %.120s", to, len(sends), len(ep.sent), payload)
		}
		ep.sent = nil
		if g.stores[to].Digest() != o.cfg.Store.Digest() {
			g.fatalf("%s store digest differs from the oracle's", to)
		}
	}

	clients := []*testClient{g.client("alice"), g.client("bob")}
	ops := []replica.Op{write("a", "1"), write("b", "2"), {Type: replica.OpRead, Key: "a"}, write("a", "3"), write("c", "4")}
	config := reconfigure(t, "join", "r4")
	if g.rng.Intn(2) == 0 {
		config = reconfigure(t, "evict", g.members[g.rng.Intn(4)])
	}
	ops = slices.Insert(ops, g.rng.Intn(len(ops)+1), config)
	for len(ops) > 0 || len(g.queue) > 0 {
		if len(ops) > 0 && (len(g.queue) == 0 || g.rng.Intn(8) == 0) {
			clients[g.rng.Intn(2)].send(ops[0])
			ops = ops[1:]
			continue
		}
		g.deliverNext()
	}
	for _, id := range g.ids {
		c, o := g.cores[id], oracles[id]
		if c.view != o.View() || c.lastExec != o.LastExecuted() || !slices.Equal(c.members, o.Members()) {
			g.fatalf("%s ends in view %d at %d with %v; the oracle in view %d at %d with %v",
				id, c.view, c.lastExec, c.members, o.View(), o.LastExecuted(), o.Members())
		}
	}
}
