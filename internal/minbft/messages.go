// Package minbft implements the reconfigurable MinBFT consensus protocol
// used by TOLERANCE (§VII-B, Appendix G, [43 §4.2]): a BFT state-machine
// replication protocol for the hybrid failure model that tolerates
// f = (N-1-k)/2 byzantine replicas by relying on a trusted USIG component
// at every node to prevent equivocation. The implementation covers the
// normal-case PREPARE/COMMIT flow, checkpoints, view changes, state
// transfer, and the join/evict reconfiguration of Fig 17.
package minbft

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"tolerance/internal/replica"
	"tolerance/internal/usig"
)

// msgType tags protocol messages on the wire.
type msgType string

// Protocol message types (Fig 17).
const (
	typeRequest       msgType = "request"
	typePrepare       msgType = "prepare"
	typeCommit        msgType = "commit"
	typeReply         msgType = "reply"
	typeCheckpoint    msgType = "checkpoint"
	typeViewChange    msgType = "view-change"
	typeNewView       msgType = "new-view"
	typeStateRequest  msgType = "state-request"
	typeStateResponse msgType = "state-response"
	typeResend        msgType = "resend"
)

// envelope wraps every message with its type.
type envelope struct {
	Type msgType         `json:"type"`
	Data json.RawMessage `json:"data"`
}

// encode wraps and marshals a message.
func encode(t msgType, msg any) ([]byte, error) {
	data, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("minbft: marshal %s: %w", t, err)
	}
	return json.Marshal(envelope{Type: t, Data: data})
}

// prepareMsg is the leader's ordering message: it binds a consensus
// sequence number to a client request under the leader's UI.
type prepareMsg struct {
	View    uint64           `json:"view"`
	Seq     uint64           `json:"seq"`
	Request *replica.Request `json:"request"`
	UI      usig.UI          `json:"ui"`
}

// signedPayload returns the bytes certified by the leader's UI.
func (p *prepareMsg) signedPayload() []byte {
	d := p.Request.Digest()
	return []byte(fmt.Sprintf("prepare:%d:%d:%x", p.View, p.Seq, d))
}

// commitMsg is a follower's agreement with a prepare.
type commitMsg struct {
	View      uint64 `json:"view"`
	Seq       uint64 `json:"seq"`
	ReplicaID string `json:"replicaId"`
	// PrepareDigest binds the commit to the exact prepare contents.
	PrepareDigest [32]byte `json:"prepareDigest"`
	UI            usig.UI  `json:"ui"`
}

func (c *commitMsg) signedPayload() []byte {
	return []byte(fmt.Sprintf("commit:%d:%d:%x", c.View, c.Seq, c.PrepareDigest))
}

// prepareDigest identifies the prepared entry for commits.
func prepareDigest(p *prepareMsg) [32]byte {
	d := p.Request.Digest()
	return sha256.Sum256([]byte(fmt.Sprintf("%d:%d:%x:%s:%d", p.View, p.Seq, d, p.UI.ReplicaID, p.UI.Counter)))
}

// checkpointMsg advertises a stable state digest every cp executions.
type checkpointMsg struct {
	ReplicaID string   `json:"replicaId"`
	Seq       uint64   `json:"seq"`
	Digest    [32]byte `json:"digest"`
	UI        usig.UI  `json:"ui"`
}

func (c *checkpointMsg) signedPayload() []byte {
	return []byte(fmt.Sprintf("checkpoint:%d:%x", c.Seq, c.Digest))
}

// viewChangeMsg votes to replace the current leader.
type viewChangeMsg struct {
	ReplicaID string  `json:"replicaId"`
	NewView   uint64  `json:"newView"`
	LastExec  uint64  `json:"lastExec"`
	UI        usig.UI `json:"ui"`
}

func (v *viewChangeMsg) signedPayload() []byte {
	return []byte(fmt.Sprintf("view-change:%d:%d", v.NewView, v.LastExec))
}

// newViewMsg installs a new view. Proof carries the f+1 view-change votes.
type newViewMsg struct {
	View     uint64          `json:"view"`
	LeaderID string          `json:"leaderId"`
	MaxExec  uint64          `json:"maxExec"`
	Proof    []viewChangeMsg `json:"proof"`
	UI       usig.UI         `json:"ui"`
}

func (n *newViewMsg) signedPayload() []byte {
	return []byte(fmt.Sprintf("new-view:%d:%d", n.View, n.MaxExec))
}

// stateRequestMsg asks a peer for a state snapshot (Fig 17d).
type stateRequestMsg struct {
	ReplicaID string `json:"replicaId"`
	// MinSeq is the lowest acceptable snapshot sequence.
	MinSeq uint64 `json:"minSeq"`
}

// stateResponseMsg carries a snapshot with its membership and view.
type stateResponseMsg struct {
	ReplicaID string   `json:"replicaId"`
	Seq       uint64   `json:"seq"`
	View      uint64   `json:"view"`
	Digest    [32]byte `json:"digest"`
	Snapshot  []byte   `json:"snapshot"`
	Members   []string `json:"members"`
}

// resendMsg tells a peer the last of its UI counters this replica has
// processed, so the peer sends again what followed: without it, one lost
// message would stall the FIFO gate for that peer for good.
type resendMsg struct {
	ReplicaID string `json:"replicaId"`
	Counter   uint64 `json:"counter"`
}

// configOp is the payload of reconfiguration requests (join/evict, Fig 17
// e-f), carried as a write to the reserved ConfigKey.
type configOp struct {
	// Action is "join" or "evict".
	Action string `json:"action"`
	// NodeID is the replica being added or removed.
	NodeID string `json:"nodeId"`
}

// ConfigKey is the reserved service key through which reconfiguration
// operations are ordered by consensus.
const ConfigKey = "__minbft_config"

// EncodeConfigOp builds the service operation for a reconfiguration.
func EncodeConfigOp(action, nodeID string) (replica.Op, error) {
	if action != "join" && action != "evict" {
		return replica.Op{}, fmt.Errorf("minbft: unknown config action %q", action)
	}
	if nodeID == "" {
		return replica.Op{}, fmt.Errorf("minbft: empty node id")
	}
	payload, err := json.Marshal(configOp{Action: action, NodeID: nodeID})
	if err != nil {
		return replica.Op{}, err
	}
	return replica.Op{Type: replica.OpWrite, Key: ConfigKey, Value: string(payload)}, nil
}
