package minbft

import (
	"cmp"
	"encoding/json"
	"slices"
	"sort"

	"tolerance/internal/replica"
	"tolerance/internal/usig"
)

// requestTimeoutTicks is how many ticks a replica waits for a pending
// request to execute before it suspects the leader: 250 ms at the shell's
// 5 ms tick.
const requestTimeoutTicks = 50

// pendingCap bounds each sender's buffer of early messages at the FIFO gate,
// and the log of its own UI-certified messages a replica keeps to resend.
const pendingCap = 1024

// resendTicks is how often a replica that waits on its peers (it holds
// early messages from one, is in a view change, or has a request half past
// its deadline) tells them the last of their UI counters it has processed;
// resendBatch bounds what one such message makes a peer send again.
const (
	resendTicks = 10
	resendBatch = 64
)

// pendingEntry tracks one consensus slot.
type pendingEntry struct {
	prepare *prepareMsg
	digest  [32]byte
	commits map[string]bool // replicas that committed (leader implicit)
}

// trackedRequest is a verified client request awaiting execution.
type trackedRequest struct {
	req *replica.Request
	// deadline is the tick after which the leader is suspected.
	deadline uint64
	// arrival orders requests by first sight; a new leader proposes the
	// ones it finds pending in this order.
	arrival uint64
}

// outbound is one send the core queued.
type outbound struct {
	to   string
	data []byte
}

// core is one replica's MinBFT protocol state. It takes one event at a
// time — an envelope (receive), a tick (tick) or an admin command (a new
// byzantine mode, requestStateSync) — and queues the sends each event
// makes, in handler order, for its caller to drain with takeSends. It
// starts no goroutine, takes no lock, reads no clock and owns no
// transport: time is the number of ticks it was given.
type core struct {
	cfg Config // with no Endpoint: the shell owns the transport

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
	// pendingByPeer buffers each sender's verified early messages by UI
	// counter, each as the handler of its decoded message.
	pendingByPeer map[string]map[uint64]func()
	// pendingRequests holds verified client requests awaiting execution,
	// keyed by request ID.
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
	// sentUI holds this replica's last pendingCap UI-certified messages as
	// sent, by counter, for peers that lost them.
	sentUI map[uint64][]byte

	ticks    uint64 // ticks taken so far: the core's clock
	arrivals uint64 // requests tracked so far
	out      []outbound
}

// newCore builds a replica's protocol state from a validated config.
func newCore(cfg Config) *core {
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 100
	}
	cfg.Endpoint = nil
	members := append([]string(nil), cfg.Members...)
	sort.Strings(members)
	return &core{
		cfg:             cfg,
		members:         members,
		entries:         make(map[uint64]*pendingEntry),
		nextPrepareSeq:  1,
		expectedSeq:     1,
		peerCounters:    make(map[string]uint64),
		pendingByPeer:   make(map[string]map[uint64]func()),
		pendingRequests: make(map[string]*trackedRequest),
		executedReqs:    make(map[string]string),
		viewChangeVotes: make(map[uint64]map[string]*viewChangeMsg),
		checkpointVotes: make(map[uint64]map[string][32]byte),
		sentUI:          make(map[uint64][]byte),
	}
}

// tolerance returns the tolerance threshold f = (N-1-k)/2.
func (c *core) tolerance() int {
	return max((len(c.members)-1-c.cfg.K)/2, 0)
}

// leader returns the current view's leader.
func (c *core) leader() string { return c.leaderOf(c.view) }

// leaderOf returns view's leader under the current membership.
func (c *core) leaderOf(view uint64) string {
	return c.members[view%uint64(len(c.members))]
}

// takeSends returns the sends queued since the last call, in order.
func (c *core) takeSends() []outbound {
	out := c.out
	c.out = nil
	return out
}

// receive decodes one envelope from the transport's sender from, once, and
// hands it to its handler. UI-carrying messages go through the per-sender
// FIFO gate first.
func (c *core) receive(from string, payload []byte) {
	if c.byzantine == Silent {
		return
	}
	var env envelope
	if json.Unmarshal(payload, &env) != nil {
		return // garbage from the network or a byzantine peer
	}
	switch env.Type {
	case typeRequest:
		var m replica.Request
		if json.Unmarshal(env.Data, &m) == nil {
			c.onRequest(&m)
		}
	case typePrepare:
		var m prepareMsg
		if json.Unmarshal(env.Data, &m) == nil && m.Request != nil {
			c.fifoGate(m.UI, m.signedPayload(), func() { c.onPrepare(&m) })
		}
	case typeCommit:
		var m commitMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.fifoGate(m.UI, m.signedPayload(), func() { c.onCommit(&m) })
		}
	case typeCheckpoint:
		var m checkpointMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.fifoGate(m.UI, m.signedPayload(), func() { c.onCheckpoint(&m) })
		}
	case typeViewChange:
		var m viewChangeMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.fifoGate(m.UI, m.signedPayload(), func() { c.onViewChange(&m) })
		}
	case typeNewView:
		var m newViewMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.fifoGate(m.UI, m.signedPayload(), func() { c.onNewView(&m) })
		}
	case typeStateRequest:
		var m stateRequestMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.onStateRequest(from, &m)
		}
	case typeStateResponse:
		var m stateResponseMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.onStateResponse(from, &m)
		}
	case typeResend:
		var m resendMsg
		if json.Unmarshal(env.Data, &m) == nil {
			c.onResend(from, &m)
		}
	}
}

// fifoGate verifies that ui certifies payload and enforces per-sender FIFO
// counter order (the MinBFT rule that prevents equivocation and message
// reordering by byzantine senders). A message arriving early waits in its
// sender's buffer; handle runs for the message and then for any buffered
// successors.
func (c *core) fifoGate(ui usig.UI, payload []byte, handle func()) {
	if c.cfg.Verifier.VerifyUI(payload, ui) != nil {
		return
	}
	peer := ui.ReplicaID
	last := c.peerCounters[peer]
	switch {
	case ui.Counter <= last:
		return // replayed or superseded
	case ui.Counter > last+1:
		// Buffer until the gap fills.
		buf := c.pendingByPeer[peer]
		if buf == nil {
			buf = make(map[uint64]func())
			c.pendingByPeer[peer] = buf
		}
		if len(buf) < pendingCap {
			buf[ui.Counter] = handle
		}
		return
	}
	c.peerCounters[peer] = ui.Counter
	for handle != nil {
		handle()
		next := c.peerCounters[peer] + 1
		if handle = c.pendingByPeer[peer][next]; handle != nil {
			delete(c.pendingByPeer[peer], next)
			c.peerCounters[peer] = next
		}
	}
}

// broadcast queues a message for every current member except self and
// returns its bytes (nil when nothing was sent).
func (c *core) broadcast(t msgType, msg any) []byte {
	data := c.wire(t, msg)
	if data == nil {
		return nil
	}
	for _, m := range c.members {
		if m != c.cfg.ID {
			c.out = append(c.out, outbound{to: m, data: data})
		}
	}
	return data
}

// keep holds the bytes of a broadcast message certified by ui for resending.
func (c *core) keep(ui usig.UI, data []byte) {
	if data != nil {
		c.sentUI[ui.Counter] = data
		delete(c.sentUI, ui.Counter-pendingCap)
	}
}

// onResend sends the member the transport delivered m from the messages it
// lacks again, in counter order, from the first it lacks while this replica
// still holds them.
func (c *core) onResend(from string, m *resendMsg) {
	if m.ReplicaID != from || !slices.Contains(c.members, from) {
		return
	}
	for n := m.Counter + 1; n <= m.Counter+resendBatch; n++ {
		data, ok := c.sentUI[n]
		if !ok {
			return
		}
		c.out = append(c.out, outbound{to: from, data: data})
	}
}

// sendTo queues a message for one peer.
func (c *core) sendTo(peer string, t msgType, msg any) {
	if data := c.wire(t, msg); data != nil {
		c.out = append(c.out, outbound{to: peer, data: data})
	}
}

// wire encodes a message the way this replica's behaviour sends it: not at
// all when Silent, and corrupted when Garbage (honest receivers reject the
// bytes at the UI check).
func (c *core) wire(t msgType, msg any) []byte {
	if c.byzantine == Silent {
		return nil
	}
	data, err := encode(t, msg)
	if err != nil {
		return nil
	}
	if c.byzantine == Garbage {
		data = append([]byte("garbage:"), data...)
	}
	return data
}

// reply queues a request's result for its client.
func (c *core) reply(req *replica.Request, result string) {
	c.sendTo(req.ClientID, typeReply, replica.Reply{
		ReplicaID: c.cfg.ID,
		RequestID: req.ID(),
		Result:    result,
	})
}

// track starts a verified request's timeout.
func (c *core) track(req *replica.Request) {
	c.arrivals++
	c.pendingRequests[req.ID()] = &trackedRequest{
		req:      req,
		deadline: c.ticks + requestTimeoutTicks,
		arrival:  c.arrivals,
	}
}

// onRequest handles a signed client request (Fig 17a, REQUEST).
func (c *core) onRequest(req *replica.Request) {
	if c.cfg.Registry.Verify(req) != nil {
		return
	}
	id := req.ID()
	if result, done := c.executedReqs[id]; done {
		c.reply(req, result) // re-reply for retransmitted requests
		return
	}
	if _, pending := c.pendingRequests[id]; pending {
		return
	}
	c.track(req)
	c.propose(req)
}

// propose, at the leader outside a view change, assigns the next sequence
// number under the leader's UI and broadcasts the PREPARE.
func (c *core) propose(req *replica.Request) {
	if c.leader() != c.cfg.ID || c.inViewChange {
		return
	}
	seq := c.nextPrepareSeq
	c.nextPrepareSeq++
	p := &prepareMsg{View: c.view, Seq: seq, Request: req}
	ui, err := c.cfg.USIG.CreateUI(p.signedPayload())
	if err != nil {
		return
	}
	p.UI = ui

	// The leader accepts its own prepare immediately.
	c.acceptPrepare(p, true)
	c.keep(ui, c.broadcast(typePrepare, p))
}

// onPrepare handles the leader's PREPARE at a follower.
func (c *core) onPrepare(p *prepareMsg) {
	if c.cfg.Registry.Verify(p.Request) != nil {
		return
	}
	if p.View != c.view || c.inViewChange || p.UI.ReplicaID != c.leader() {
		return // prepares must come from the current leader
	}
	if p.Seq != c.expectedSeq {
		// A correct leader assigns contiguous sequence numbers; anything
		// else is stale or byzantine.
		return
	}
	c.acceptPrepare(p, false)

	// Send COMMIT (Fig 17a).
	m := &commitMsg{
		View:          p.View,
		Seq:           p.Seq,
		ReplicaID:     c.cfg.ID,
		PrepareDigest: prepareDigest(p),
	}
	ui, err := c.cfg.USIG.CreateUI(m.signedPayload())
	if err != nil {
		return
	}
	m.UI = ui
	c.recordCommit(m.Seq, m.PrepareDigest, c.cfg.ID)
	c.keep(ui, c.broadcast(typeCommit, m))
	c.tryExecute()
}

// acceptPrepare installs the slot entry.
func (c *core) acceptPrepare(p *prepareMsg, leader bool) {
	e := c.entry(p.Seq)
	if e.prepare != nil {
		return
	}
	e.prepare = p
	e.digest = prepareDigest(p)
	// The leader's prepare counts as its commit.
	e.commits[p.UI.ReplicaID] = true
	if !leader && p.Seq == c.expectedSeq {
		c.expectedSeq++
	}
	// Track the request for timeout purposes if we hadn't seen it.
	id := p.Request.ID()
	if _, done := c.executedReqs[id]; !done {
		if _, pending := c.pendingRequests[id]; !pending {
			c.track(p.Request)
		}
	}
}

// entry returns seq's slot, creating it empty.
func (c *core) entry(seq uint64) *pendingEntry {
	e := c.entries[seq]
	if e == nil {
		e = &pendingEntry{commits: make(map[string]bool)}
		c.entries[seq] = e
	}
	return e
}

// onCommit handles a COMMIT vote.
func (c *core) onCommit(m *commitMsg) {
	if m.View != c.view || c.inViewChange {
		return
	}
	if m.UI.ReplicaID != m.ReplicaID {
		return // commit must be certified by its claimed sender
	}
	c.recordCommit(m.Seq, m.PrepareDigest, m.ReplicaID)
	c.tryExecute()
}

// recordCommit registers a commit vote for a slot.
func (c *core) recordCommit(seq uint64, digest [32]byte, from string) {
	e := c.entry(seq)
	if e.prepare != nil && e.digest != digest {
		return // commit for a different prepare; ignore
	}
	e.commits[from] = true
}

// tryExecute executes committed slots in sequence order (Safety).
func (c *core) tryExecute() {
	for {
		next := c.lastExec + 1
		e := c.entries[next]
		if e == nil || e.prepare == nil || len(e.commits) < c.tolerance()+1 {
			return
		}
		delete(c.entries, next)
		c.lastExec = next
		c.execute(next, e.prepare.Request)
	}
}

// execute applies a request to the state machine, processes reconfiguration
// side effects, replies to the client, and emits checkpoints.
func (c *core) execute(seq uint64, req *replica.Request) {
	result, err := c.cfg.Store.Apply(req)
	if err != nil {
		result = "error: " + err.Error()
	}
	c.executedReqs[req.ID()] = result
	delete(c.pendingRequests, req.ID())

	if req.Op.Key == ConfigKey && req.Op.Type == replica.OpWrite {
		c.applyConfigOp(req.Op.Value)
	}
	c.reply(req, result)
	if seq%c.cfg.CheckpointInterval == 0 {
		c.emitCheckpoint(seq)
	}
}

// tick advances the core's clock by one tick and drives timeouts: a
// replica that waits on its peers asks them for what it lacks, request
// deadlines trigger view changes, and the leader re-proposes, in arrival
// order, requests it has not ordered yet.
func (c *core) tick() {
	c.ticks++
	if c.byzantine == Silent {
		return
	}
	if c.ticks%resendTicks == 0 {
		c.askPeers()
	}
	if c.inViewChange {
		// Votes or a state transfer's membership may since have made this
		// replica the leader of the view it waits for.
		c.maybeInstallView(c.view + 1)
	}
	if c.leader() == c.cfg.ID && !c.inViewChange {
		// A leader that took over mid-stream proposes anything pending
		// that is not yet in flight.
		inFlight := make(map[string]bool, len(c.entries))
		for _, e := range c.entries {
			if e.prepare != nil {
				inFlight[e.prepare.Request.ID()] = true
			}
		}
		var toPropose []*trackedRequest
		for id, tr := range c.pendingRequests {
			if !inFlight[id] {
				toPropose = append(toPropose, tr)
			}
		}
		slices.SortFunc(toPropose, func(a, b *trackedRequest) int { return cmp.Compare(a.arrival, b.arrival) })
		for _, tr := range toPropose {
			tr.deadline = c.ticks + requestTimeoutTicks
			c.propose(tr.req)
		}
		return
	}
	expired := false
	for _, tr := range c.pendingRequests {
		if c.ticks > tr.deadline {
			expired = true
			tr.deadline = c.ticks + requestTimeoutTicks // back off
		}
	}
	if expired {
		c.startViewChange()
	}
}

// askPeers, while this replica waits on its peers, tells each the last of
// its UI counters processed here, so the peer resends what was lost; a
// replica that waits on nothing sends nothing. It also asks for state while
// in a view change, or while it leads with a request past its deadline:
// peers that executed past it bring it their view and membership. A
// replica that missed the reconfiguration that started a view change lacks
// both, and then rejects the new leader's NEW-VIEW or leads a view no peer
// follows.
func (c *core) askPeers() {
	waiting, overdue := c.inViewChange, false
	for _, tr := range c.pendingRequests {
		waiting = waiting || c.ticks+requestTimeoutTicks/2 > tr.deadline
		overdue = overdue || c.ticks > tr.deadline
	}
	for _, m := range c.members {
		if m != c.cfg.ID && (waiting || len(c.pendingByPeer[m]) > 0) {
			c.sendTo(m, typeResend, resendMsg{ReplicaID: c.cfg.ID, Counter: c.peerCounters[m]})
		}
	}
	if c.inViewChange || overdue && c.leader() == c.cfg.ID {
		c.requestStateSync(c.lastExec + 1)
	}
}
