package minbft

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"strings"

	"tolerance/internal/replica"
)

// startViewChange suspects the current leader and votes for view+1
// (Fig 17b).
func (c *core) startViewChange() {
	if c.inViewChange {
		return
	}
	c.inViewChange = true
	target := c.view + 1
	c.voteViewChange(target)
	c.maybeInstallView(target)
}

// voteViewChange certifies, records and broadcasts this replica's vote for
// view target.
func (c *core) voteViewChange(target uint64) {
	v := &viewChangeMsg{ReplicaID: c.cfg.ID, NewView: target, LastExec: c.lastExec}
	ui, err := c.cfg.USIG.CreateUI(v.signedPayload())
	if err != nil {
		return
	}
	v.UI = ui
	c.recordViewChange(v)
	c.keep(ui, c.broadcast(typeViewChange, v))
}

// onViewChange handles a peer's VIEW-CHANGE vote.
func (c *core) onViewChange(v *viewChangeMsg) {
	if v.NewView <= c.view || v.UI.ReplicaID != v.ReplicaID {
		return
	}
	c.recordViewChange(v)

	// Join the view change once f+1 distinct replicas vote for it — this
	// replica cannot be left behind even if its own timer never fired.
	if len(c.viewChangeVotes[v.NewView]) >= c.tolerance()+1 && !c.inViewChange {
		c.inViewChange = true
		c.voteViewChange(v.NewView)
	}
	c.maybeInstallView(v.NewView)
}

// recordViewChange stores a vote.
func (c *core) recordViewChange(v *viewChangeMsg) {
	if c.viewChangeVotes[v.NewView] == nil {
		c.viewChangeVotes[v.NewView] = make(map[string]*viewChangeMsg)
	}
	c.viewChangeVotes[v.NewView][v.ReplicaID] = v
}

// maybeInstallView lets the new view's leader broadcast NEW-VIEW once it
// holds f+1 votes (including its own).
func (c *core) maybeInstallView(target uint64) {
	if target <= c.view || c.leaderOf(target) != c.cfg.ID {
		return
	}
	votes := c.viewChangeVotes[target]
	if len(votes) < c.tolerance()+1 {
		return
	}
	maxExec := c.lastExec
	proof := make([]viewChangeMsg, 0, len(votes))
	for _, v := range votes {
		proof = append(proof, *v)
		maxExec = max(maxExec, v.LastExec)
	}
	sort.Slice(proof, func(i, j int) bool { return proof[i].ReplicaID < proof[j].ReplicaID })

	n := &newViewMsg{View: target, LeaderID: c.cfg.ID, MaxExec: maxExec, Proof: proof}
	ui, err := c.cfg.USIG.CreateUI(n.signedPayload())
	if err != nil {
		return
	}
	n.UI = ui
	c.adoptView(n)
	c.keep(ui, c.broadcast(typeNewView, n))
}

// onNewView handles the NEW-VIEW installation message.
func (c *core) onNewView(n *newViewMsg) {
	if n.View <= c.view {
		return
	}
	expectedLeader := c.leaderOf(n.View)
	if n.UI.ReplicaID != expectedLeader || n.LeaderID != expectedLeader {
		return
	}
	// Verify the proof: f+1 distinct valid view-change votes for this view.
	valid := make(map[string]bool)
	for i := range n.Proof {
		v := n.Proof[i]
		if v.NewView != n.View || v.UI.ReplicaID != v.ReplicaID {
			continue
		}
		if err := c.cfg.Verifier.VerifyUI(v.signedPayload(), v.UI); err != nil {
			continue
		}
		valid[v.ReplicaID] = true
	}
	if len(valid) < c.tolerance()+1 {
		return
	}
	c.adoptView(n)
}

// adoptView switches to the new view and re-tracks pending requests: each
// gets a full timeout for the new leader to order it.
func (c *core) adoptView(n *newViewMsg) {
	if n.View <= c.view {
		return
	}
	c.view = n.View
	c.inViewChange = false
	c.entries = make(map[uint64]*pendingEntry)
	for _, tr := range c.pendingRequests {
		tr.deadline = c.ticks + requestTimeoutTicks
	}
	start := max(n.MaxExec, c.lastExec)
	c.nextPrepareSeq = start + 1
	c.expectedSeq = start + 1
	for view := range c.viewChangeVotes {
		if view <= n.View {
			delete(c.viewChangeVotes, view)
		}
	}
	if c.lastExec < n.MaxExec {
		c.requestStateSync(n.MaxExec)
	}
}

// emitCheckpoint broadcasts this replica's state digest (Fig 17c).
func (c *core) emitCheckpoint(seq uint64) {
	m := &checkpointMsg{ReplicaID: c.cfg.ID, Seq: seq, Digest: c.cfg.Store.Digest()}
	ui, err := c.cfg.USIG.CreateUI(m.signedPayload())
	if err != nil {
		return
	}
	m.UI = ui
	c.recordCheckpoint(m)
	c.keep(ui, c.broadcast(typeCheckpoint, m))
}

// onCheckpoint handles a peer's checkpoint.
func (c *core) onCheckpoint(m *checkpointMsg) {
	if m.UI.ReplicaID != m.ReplicaID {
		return
	}
	c.recordCheckpoint(m)
	// A replica that observes a stable checkpoint far ahead of its own
	// execution is missing state (e.g. it joined or recovered); catch up.
	if m.Seq > c.lastExec && c.stableSeq >= m.Seq {
		c.requestStateSync(m.Seq)
	}
}

// recordCheckpoint stores a checkpoint vote and advances the stable
// checkpoint on f+1 matching digests.
func (c *core) recordCheckpoint(m *checkpointMsg) {
	if m.Seq <= c.stableSeq {
		return
	}
	if c.checkpointVotes[m.Seq] == nil {
		c.checkpointVotes[m.Seq] = make(map[string][32]byte)
	}
	c.checkpointVotes[m.Seq][m.ReplicaID] = m.Digest
	// Count agreement on the most common digest.
	counts := make(map[[32]byte]int)
	for _, d := range c.checkpointVotes[m.Seq] {
		counts[d]++
	}
	for _, n := range counts {
		if n >= c.tolerance()+1 {
			c.stableSeq = m.Seq
			// Garbage-collect old votes.
			for seq := range c.checkpointVotes {
				if seq <= c.stableSeq {
					delete(c.checkpointVotes, seq)
				}
			}
			break
		}
	}
}

// requestStateSync asks peers for a snapshot at or beyond minSeq (used by
// joining and recovered replicas, Fig 17d-e).
func (c *core) requestStateSync(minSeq uint64) {
	c.broadcast(typeStateRequest, &stateRequestMsg{ReplicaID: c.cfg.ID, MinSeq: minSeq})
}

// onStateRequest serves a snapshot (STATE, Fig 17d) to the replica the
// transport delivered the request from, and to no other.
func (c *core) onStateRequest(from string, s *stateRequestMsg) {
	if s.ReplicaID != from || c.lastExec < s.MinSeq {
		return // misaddressed, or cannot help
	}
	snapshot, err := c.cfg.Store.Snapshot()
	if err != nil {
		return
	}
	c.sendTo(s.ReplicaID, typeStateResponse, &stateResponseMsg{
		ReplicaID: c.cfg.ID,
		Seq:       c.lastExec,
		View:      c.view,
		Digest:    c.cfg.Store.Digest(),
		Snapshot:  snapshot,
		Members:   c.members,
	})
}

// stateVoteKey identifies a snapshot candidate.
type stateVoteKey struct {
	seq     uint64
	digest  [32]byte
	members string // the responder's membership, joined
}

// onStateResponse collects snapshots and installs one once f+1 members
// agree on (seq, digest, membership). The f+1 rule mirrors §VII-C: a
// recovered replica initializes its state from f+1 identical copies. A
// response counts only for the member the transport names as its sender.
// The transport's sender is not authenticated (over TCP it is the frame
// header the sender writes), so this binds a vote to a sender, not to a
// proof of one.
func (c *core) onStateResponse(from string, s *stateResponseMsg) {
	if s.ReplicaID != from || !slices.Contains(c.members, from) || s.Seq <= c.lastExec {
		return
	}
	if c.stateResponses == nil {
		c.stateResponses = make(map[stateVoteKey]map[string]*stateResponseMsg)
	}
	key := stateVoteKey{seq: s.Seq, digest: s.Digest, members: strings.Join(s.Members, "\x00")}
	if c.stateResponses[key] == nil {
		c.stateResponses[key] = make(map[string]*stateResponseMsg)
	}
	c.stateResponses[key][s.ReplicaID] = s
	if len(c.stateResponses[key]) < c.tolerance()+1 {
		return
	}
	// Verify the snapshot digest matches before installing.
	probe := replicaStoreDigest(s.Snapshot)
	if probe == nil || !bytes.Equal(probe, s.Digest[:]) {
		return
	}
	if c.cfg.Store.Restore(s.Snapshot) != nil {
		return
	}
	c.lastExec = s.Seq
	if s.View > c.view {
		c.view = s.View
		c.inViewChange = false
	}
	if len(s.Members) >= 2 {
		members := append([]string(nil), s.Members...)
		sort.Strings(members)
		c.members = members
	}
	c.entries = make(map[uint64]*pendingEntry)
	c.nextPrepareSeq = s.Seq + 1
	c.expectedSeq = s.Seq + 1
	c.stateResponses = nil
}

// replicaStoreDigest computes the digest a fresh store would have after
// restoring the snapshot.
func replicaStoreDigest(snapshot []byte) []byte {
	probe := replica.NewKVStore()
	if err := probe.Restore(snapshot); err != nil {
		return nil
	}
	d := probe.Digest()
	return d[:]
}

// applyConfigOp executes a reconfiguration op that was ordered through
// consensus (Fig 17 e-f). All honest replicas apply it at the same sequence
// number, so membership changes deterministically. Any signed client can
// write ConfigKey, past EncodeConfigOp's checks, so every replica ignores,
// by the same rule, an op with an empty node id and an evict that would
// leave no member.
func (c *core) applyConfigOp(value string) {
	var op configOp
	if json.Unmarshal([]byte(value), &op) != nil || op.NodeID == "" {
		return
	}
	oldLeader := c.leader()
	switch op.Action {
	case "join":
		if !slices.Contains(c.members, op.NodeID) {
			c.members = append(c.members, op.NodeID)
			sort.Strings(c.members)
		}
	case "evict":
		if !slices.ContainsFunc(c.members, func(m string) bool { return m != op.NodeID }) {
			return
		}
		out := c.members[:0]
		for _, m := range c.members {
			if m != op.NodeID {
				out = append(out, m)
			}
		}
		c.members = out
	}
	if op.Action == "evict" && op.NodeID == oldLeader {
		// The evicted node can no longer lead; move to the next view
		// (Fig 17f: EVICT triggers NEW-VIEW).
		c.startViewChange()
	}
}
