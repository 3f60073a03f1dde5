// Package usig implements the Unique Sequential Identifier Generator — the
// trusted component that MinBFT relies on (Appendix G of the paper; [43]).
// A USIG assigns monotonically increasing counter values to messages and
// certifies the assignment so that other replicas can verify that a given
// counter value was assigned to a given message and that no counter value is
// ever reused ("the tamperproof service can assert whether a given sequence
// number was assigned to a message").
//
// Certification is HMAC-SHA256 over a shared symmetric key, which models the
// trusted hardware of the hybrid failure model. (The paper's Table 8
// configuration signs with 1024-bit RSA keys; this reproduction's replicas
// certify with HMAC only.)
//
// In the TOLERANCE architecture the USIG lives in a node's privileged
// domain, which by assumption can only fail by crashing; a compromised
// application domain therefore cannot equivocate even though the replica is
// byzantine.
package usig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
)

// ErrBadCertificate is returned for a UI whose certificate does not match.
var ErrBadCertificate = errors.New("usig: invalid certificate")

// UI is a unique identifier: a certified (counter, message-digest) pair.
type UI struct {
	// ReplicaID identifies the USIG instance that created the identifier.
	ReplicaID string `json:"replicaId"`
	// Counter is the monotonically increasing sequence value.
	Counter uint64 `json:"counter"`
	// Cert is the certificate over (replicaID, counter, digest).
	Cert []byte `json:"cert"`
}

// USIG is a trusted monotonic counter bound to a certification key.
type USIG struct {
	mu      sync.Mutex
	id      string
	counter uint64
	hmacKey []byte
}

// NewHMAC creates a USIG certifying with HMAC-SHA256 over a shared key.
func NewHMAC(id string, key []byte) (*USIG, error) {
	if id == "" {
		return nil, errors.New("usig: empty replica id")
	}
	if len(key) < 16 {
		return nil, errors.New("usig: key shorter than 16 bytes")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &USIG{id: id, hmacKey: k}, nil
}

// ResumeHMAC creates an HMAC USIG whose counter continues from a previous
// incarnation. In the hybrid failure model the USIG lives in the node's
// trusted domain, which survives application-domain resets: when the
// recovery controller restarts a replica process (√ in Fig 2), the new
// process must keep certifying from the old counter, because peers enforce
// FIFO processing per sender — a replica that came back with a fresh
// counter would have every message dropped as a replay. counter is the last
// value the previous incarnation assigned (USIG.Counter()).
func ResumeHMAC(id string, key []byte, counter uint64) (*USIG, error) {
	u, err := NewHMAC(id, key)
	if err != nil {
		return nil, err
	}
	u.counter = counter
	return u, nil
}

// Counter returns the last assigned counter value.
func (u *USIG) Counter() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.counter
}

// CreateUI assigns the next counter value to the message and certifies it.
// Counter values are never reused and never skip: this is the property that
// prevents equivocation in MinBFT.
func (u *USIG) CreateUI(message []byte) (UI, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.counter++
	digest := sha256.Sum256(message)
	payload := certPayload(u.id, u.counter, digest[:])
	mac := hmac.New(sha256.New, u.hmacKey)
	mac.Write(payload)
	return UI{ReplicaID: u.id, Counter: u.counter, Cert: mac.Sum(nil)}, nil
}

// certPayload canonically encodes (id, counter, digest).
func certPayload(id string, counter uint64, digest []byte) []byte {
	buf := make([]byte, 0, 2+len(id)+8+len(digest))
	var idLen [2]byte
	binary.BigEndian.PutUint16(idLen[:], uint16(len(id)))
	buf = append(buf, idLen[:]...)
	buf = append(buf, id...)
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], counter)
	buf = append(buf, ctr[:]...)
	buf = append(buf, digest...)
	return buf
}

// Verifier checks UIs created by a set of USIGs. All replicas share the key
// (the trusted components hold it; byzantine application domains never see
// it).
type Verifier struct {
	hmacKey []byte
}

// NewHMACVerifier builds a verifier for HMAC-mode USIGs.
func NewHMACVerifier(key []byte) (*Verifier, error) {
	if len(key) < 16 {
		return nil, errors.New("usig: key shorter than 16 bytes")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Verifier{hmacKey: k}, nil
}

// VerifyUI checks that the UI certifies the given message for its claimed
// replica and counter.
func (v *Verifier) VerifyUI(message []byte, ui UI) error {
	digest := sha256.Sum256(message)
	payload := certPayload(ui.ReplicaID, ui.Counter, digest[:])
	mac := hmac.New(sha256.New, v.hmacKey)
	mac.Write(payload)
	if !hmac.Equal(mac.Sum(nil), ui.Cert) {
		return ErrBadCertificate
	}
	return nil
}
