// Package replica implements the replicated service of §VII-B: a
// deterministic key-value state machine offering read and write operations,
// digitally signed client requests (ed25519), and the client-side quorum
// rule — a response is accepted once f+1 replicas return identical,
// correctly signed replies (a quorum is necessary because the client cannot
// know which replicas are compromised, Prop. 1).
package replica

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by the service layer.
var (
	ErrBadSignature = errors.New("replica: bad request signature")
	ErrUnknownOp    = errors.New("replica: unknown operation type")
)

// OpType selects the service operation (§VII-B: read and write).
type OpType int

// Operations offered by the service.
const (
	OpRead OpType = iota + 1
	OpWrite
)

// Op is one deterministic service operation.
type Op struct {
	// Type is OpRead or OpWrite.
	Type OpType `json:"type"`
	// Key addresses the state entry.
	Key string `json:"key"`
	// Value is written for OpWrite; ignored for OpRead.
	Value string `json:"value,omitempty"`
}

// Request is a signed client request with a unique identifier (§VII-B:
// "each request has a unique identifier that is digitally signed").
type Request struct {
	// ClientID identifies the issuing client.
	ClientID string `json:"clientId"`
	// Seq is the client-local sequence number; (ClientID, Seq) is unique.
	Seq uint64 `json:"seq"`
	// Op is the operation to execute.
	Op Op `json:"op"`
	// Sig is the client's ed25519 signature over the canonical digest.
	Sig []byte `json:"sig"`
}

// Digest returns the canonical digest covering all signed fields.
func (r *Request) Digest() [32]byte {
	h := sha256.New()
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], r.Seq)
	h.Write([]byte(r.ClientID))
	h.Write(seq[:])
	var ty [2]byte
	binary.BigEndian.PutUint16(ty[:], uint16(r.Op.Type))
	h.Write(ty[:])
	h.Write([]byte(r.Op.Key))
	h.Write([]byte{0})
	h.Write([]byte(r.Op.Value))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ID returns the request's unique identifier string.
func (r *Request) ID() string {
	return fmt.Sprintf("%s/%d", r.ClientID, r.Seq)
}

// Signer issues signed requests for one client.
type Signer struct {
	mu       sync.Mutex
	clientID string
	priv     ed25519.PrivateKey
	pub      ed25519.PublicKey
	seq      uint64
}

// NewSigner creates a client signer with a fresh ed25519 key pair.
func NewSigner(clientID string) (*Signer, error) {
	if clientID == "" {
		return nil, errors.New("replica: empty client id")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("replica: generate key: %w", err)
	}
	return &Signer{clientID: clientID, priv: priv, pub: pub}, nil
}

// PublicKey returns the verification key to register with replicas.
func (s *Signer) PublicKey() ed25519.PublicKey { return s.pub }

// Sign creates the next signed request for the operation.
func (s *Signer) Sign(op Op) *Request {
	s.mu.Lock()
	s.seq++
	req := &Request{ClientID: s.clientID, Seq: s.seq, Op: op}
	s.mu.Unlock()
	d := req.Digest()
	req.Sig = ed25519.Sign(s.priv, d[:])
	return req
}

// Registry maps client IDs to verification keys.
type Registry struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewRegistry creates an empty client registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]ed25519.PublicKey)}
}

// Register installs a client's public key.
func (r *Registry) Register(clientID string, key ed25519.PublicKey) error {
	if clientID == "" || len(key) != ed25519.PublicKeySize {
		return errors.New("replica: invalid registration")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[clientID] = key
	return nil
}

// Verify checks a request's signature (the Validity property relies on
// this: each executed request was sent by a client).
func (r *Registry) Verify(req *Request) error {
	r.mu.RLock()
	key, ok := r.keys[req.ClientID]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: unknown client %s", ErrBadSignature, req.ClientID)
	}
	d := req.Digest()
	if !ed25519.Verify(key, d[:], req.Sig) {
		return ErrBadSignature
	}
	return nil
}

// KVStore is the deterministic state machine. All replicas executing the
// same request sequence reach the same state and produce the same results
// (the Safety property of Prop. 1).
type KVStore struct {
	mu       sync.RWMutex
	data     map[string]string
	applied  uint64
	lastSeen map[string]uint64 // clientID -> highest applied seq (dedup)
}

// NewKVStore creates an empty store.
func NewKVStore() *KVStore {
	return &KVStore{
		data:     make(map[string]string),
		lastSeen: make(map[string]uint64),
	}
}

// Apply executes the operation and returns its result. Duplicate requests
// (same client, non-increasing seq for writes) are executed idempotently:
// the state does not change but a result is still produced.
func (kv *KVStore) Apply(req *Request) (string, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	switch req.Op.Type {
	case OpRead:
		kv.applied++
		return kv.data[req.Op.Key], nil
	case OpWrite:
		if req.Seq > kv.lastSeen[req.ClientID] {
			kv.data[req.Op.Key] = req.Op.Value
			kv.lastSeen[req.ClientID] = req.Seq
		}
		kv.applied++
		return req.Op.Value, nil
	default:
		return "", fmt.Errorf("%w: %d", ErrUnknownOp, req.Op.Type)
	}
}

// Digest returns a deterministic hash of the full state, used for
// checkpoints and state transfer (§VII-C: a recovered replica initializes
// its state from f+1 identical copies).
func (kv *KVStore) Digest() [32]byte {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(kv.data[k]))
		h.Write([]byte{1})
	}
	clients := make([]string, 0, len(kv.lastSeen))
	for c := range kv.lastSeen {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		h.Write([]byte(c))
		var seq [8]byte
		binary.BigEndian.PutUint64(seq[:], kv.lastSeen[c])
		h.Write(seq[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Snapshot serializes the full state for state transfer.
func (kv *KVStore) Snapshot() ([]byte, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return json.Marshal(struct {
		Data     map[string]string `json:"data"`
		LastSeen map[string]uint64 `json:"lastSeen"`
		Applied  uint64            `json:"applied"`
	}{kv.data, kv.lastSeen, kv.applied})
}

// Restore replaces the state from a snapshot.
func (kv *KVStore) Restore(snapshot []byte) error {
	var s struct {
		Data     map[string]string `json:"data"`
		LastSeen map[string]uint64 `json:"lastSeen"`
		Applied  uint64            `json:"applied"`
	}
	if err := json.Unmarshal(snapshot, &s); err != nil {
		return fmt.Errorf("replica: restore: %w", err)
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.data = s.Data
	if kv.data == nil {
		kv.data = make(map[string]string)
	}
	kv.lastSeen = s.LastSeen
	if kv.lastSeen == nil {
		kv.lastSeen = make(map[string]uint64)
	}
	kv.applied = s.Applied
	return nil
}

// Reply is one replica's response to a request.
type Reply struct {
	// ReplicaID identifies the responder.
	ReplicaID string `json:"replicaId"`
	// RequestID echoes Request.ID().
	RequestID string `json:"requestId"`
	// Result is the execution result.
	Result string `json:"result"`
}

// QuorumCollector gathers replies until f+1 distinct replicas agree on the
// same result for the same request (§VII-B).
type QuorumCollector struct {
	mu        sync.Mutex
	f         int
	requestID string
	byResult  map[string]map[string]bool // result -> replica set
}

// NewQuorumCollector creates a collector for the given request and
// tolerance threshold f.
func NewQuorumCollector(requestID string, f int) (*QuorumCollector, error) {
	if f < 0 {
		return nil, fmt.Errorf("replica: negative f = %d", f)
	}
	if requestID == "" {
		return nil, errors.New("replica: empty request id")
	}
	return &QuorumCollector{
		f:         f,
		requestID: requestID,
		byResult:  make(map[string]map[string]bool),
	}, nil
}

// Add records a reply; it returns the agreed result and true once f+1
// identical replies from distinct replicas have been observed.
func (q *QuorumCollector) Add(r Reply) (string, bool) {
	if r.RequestID != q.requestID {
		return "", false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	set := q.byResult[r.Result]
	if set == nil {
		set = make(map[string]bool)
		q.byResult[r.Result] = set
	}
	set[r.ReplicaID] = true
	if len(set) >= q.f+1 {
		return r.Result, true
	}
	return "", false
}
