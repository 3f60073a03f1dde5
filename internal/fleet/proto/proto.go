// Package proto defines the wire protocol spoken between the fleet
// coordinator (tolerance-fleet -serve) and its remote workers
// (tolerance-fleet -connect) over the internal/transport message layer.
// Every message is a JSON Envelope — a kind tag plus a kind-specific
// payload — small enough to fit one transport frame.
//
// # Roles and state machine
//
// The coordinator owns a suite: the authoritative scenario index set
// [0, Scenarios), the durable record sink, and the lease table. Workers own
// nothing durable; they execute leased index ranges and stream the
// resulting run records back. The conversation, from the worker's side:
//
//	Hello        -> Welcome      handshake: version check; the coordinator
//	                             returns the suite document, its
//	                             fingerprint and the heartbeat interval
//	LeaseRequest -> Lease        an index-contiguous scenario range
//	                             [Start, End) to execute, or
//	             -> Wait         no range available right now (Drain=false:
//	                             ask again one heartbeat later; Drain=true:
//	                             the run is over, disconnect)
//	Records      -> RecordsAck   a batch of completed run records under a
//	                             lease; resent until acknowledged
//	Heartbeat    -> (nothing)    keep-alive while executing a lease
//	Goodbye      -> (nothing)    voluntary departure; the coordinator
//	                             releases the worker's leases immediately
//
// A lease is live while heartbeats (or record batches, which refresh it
// too) keep arriving; a lease silent for five heartbeat intervals is
// expired and its incomplete indices are re-leased to the next requester.
// A worker has one request outstanding at a time (Hello, LeaseRequest or
// an unacknowledged Records batch) and resends it until answered. Workers
// never coordinate with each other.
//
// # Replay dedupe
//
// The transport may drop messages and lease expiry may race a slow
// worker's deliveries, so the same scenario record can legitimately arrive
// more than once (from a retransmitted batch, or from two workers that
// both executed a re-leased index). Scenario execution is deterministic —
// a record's bytes depend only on (suite, index) — so the rule is simply
// first write wins: the coordinator folds the first record it sees for an
// index and counts every later arrival as a replay. This is the same
// dedupe contract the checkpoint -resume path relies on.
//
// # Versioning
//
// Hello and Welcome carry Version; either side refuses a peer speaking a
// different protocol version. The suite itself travels as the versioned
// JSON suite document (fleet.DumpSuite / fleet.ParseSuite), so the suite
// schema is versioned independently of the wire protocol.
//
// Fields leave without a version bump when no peer reads them:
// Wait.BackoffMillis, Welcome.LeaseTimeoutMillis and Heartbeat.Done went
// this way. encoding/json ignores a field it does not know, and an older
// peer reads a missing one as zero, which it takes as one heartbeat (the
// wait) and five heartbeats (the lease timeout) — the values they carried.
package proto

import (
	"encoding/json"
	"fmt"
)

// Version is the coordinator/worker wire-protocol version. Both sides
// refuse peers with a different version.
const Version = 1

// Kind discriminates Envelope payloads.
type Kind string

// The message kinds. See the package documentation for the state machine.
const (
	// KindHello opens a worker's session (worker -> coordinator).
	KindHello Kind = "hello"
	// KindWelcome answers a Hello with the suite and lease timings
	// (coordinator -> worker).
	KindWelcome Kind = "welcome"
	// KindLeaseRequest asks for a scenario range (worker -> coordinator).
	KindLeaseRequest Kind = "lease-request"
	// KindLease grants a scenario range (coordinator -> worker).
	KindLease Kind = "lease"
	// KindWait defers or ends a lease request (coordinator -> worker).
	KindWait Kind = "wait"
	// KindRecords delivers completed run records (worker -> coordinator).
	KindRecords Kind = "records"
	// KindRecordsAck acknowledges a Records batch (coordinator -> worker).
	KindRecordsAck Kind = "records-ack"
	// KindHeartbeat keeps a lease alive (worker -> coordinator).
	KindHeartbeat Kind = "heartbeat"
	// KindGoodbye announces a voluntary departure (worker -> coordinator).
	KindGoodbye Kind = "goodbye"
)

// Envelope frames every message: a kind tag and the kind's payload.
type Envelope struct {
	// Kind tags the payload type.
	Kind Kind `json:"kind"`
	// Payload is the kind-specific message body.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Hello opens a worker session.
type Hello struct {
	// Version is the worker's protocol version.
	Version int `json:"version"`
}

// Welcome answers a Hello.
type Welcome struct {
	// Version is the coordinator's protocol version.
	Version int `json:"version"`
	// Suite is the versioned JSON suite document (fleet.DumpSuite) the
	// worker must execute leases from.
	Suite []byte `json:"suite"`
	// Fingerprint is the suite's fingerprint; the worker verifies its
	// parsed copy against it before executing anything.
	Fingerprint string `json:"fingerprint"`
	// Scenarios is the suite's total scenario count.
	Scenarios int `json:"scenarios"`
	// HeartbeatMillis is how often the worker must heartbeat a held lease.
	// A lease silent for five heartbeats is re-leased, and a worker told
	// to Wait asks again one heartbeat later.
	HeartbeatMillis int `json:"heartbeatMillis"`
}

// LeaseRequest asks for the next scenario range. It is also the worker's
// poll after a Wait. It has no fields, and the fleet writes and reads its
// one spelling as bytes.
//
//tolerance:testonly the message's type, which the encoding/json oracle of that spelling decodes
type LeaseRequest struct{}

// Lease grants the scenario index range [Start, End) under lease ID.
type Lease struct {
	// ID identifies the lease in Records, Heartbeat and RecordsAck.
	ID uint64 `json:"id"`
	// Start is the first scenario index of the range.
	Start int `json:"start"`
	// End is one past the last scenario index of the range.
	End int `json:"end"`
}

// Wait tells a requesting worker there is no range to grant.
type Wait struct {
	// Drain, when true, means the run is over (complete or shutting down):
	// the worker should disconnect instead of asking again one heartbeat
	// later.
	Drain bool `json:"drain"`
}

// Records delivers a batch of completed scenario records executed under a
// lease. Each element is the JSON encoding of a fleet.RunRecord — the same
// bytes a checkpoint line holds. The worker resends the batch until it
// receives the matching RecordsAck.
type Records struct {
	// LeaseID is the lease the records were executed under.
	LeaseID uint64 `json:"leaseId"`
	// Seq numbers the batch within the lease, for ack matching.
	Seq int `json:"seq"`
	// Records holds the JSON-encoded run records.
	Records []json.RawMessage `json:"records"`
}

// RecordsAck acknowledges the Records batch (LeaseID, Seq).
type RecordsAck struct {
	// LeaseID echoes the acknowledged batch's lease.
	LeaseID uint64 `json:"leaseId"`
	// Seq echoes the acknowledged batch's sequence number.
	Seq int `json:"seq"`
}

// Heartbeat keeps a held lease alive while its range executes.
type Heartbeat struct {
	// LeaseID is the lease being kept alive.
	LeaseID uint64 `json:"leaseId"`
}

// Goodbye announces a voluntary departure (Ctrl-C on the worker); the
// coordinator releases the worker's leases without waiting for the
// timeout.
type Goodbye struct{}

// Encode frames a payload of the given kind into wire bytes.
func Encode(kind Kind, payload any) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("proto: encode %s: %w", kind, err)
	}
	data, err := json.Marshal(Envelope{Kind: kind, Payload: body})
	if err != nil {
		return nil, fmt.Errorf("proto: encode %s: %w", kind, err)
	}
	return data, nil
}

// Decode parses wire bytes into the message kind and its raw payload; pass
// the payload to Unmarshal with the kind's struct.
func Decode(data []byte) (Kind, json.RawMessage, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return "", nil, fmt.Errorf("proto: decode: %w", err)
	}
	if env.Kind == "" {
		return "", nil, fmt.Errorf("proto: decode: missing kind")
	}
	return env.Kind, env.Payload, nil
}

// Unmarshal decodes a payload produced by Decode into the kind's struct.
func Unmarshal(payload json.RawMessage, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("proto: payload: %w", err)
	}
	return nil
}
