package replica

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestSignAndVerify(t *testing.T) {
	s, err := NewSigner("alice")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("alice", s.PublicKey()); err != nil {
		t.Fatal(err)
	}
	req := s.Sign(Op{Type: OpWrite, Key: "k", Value: "v"})
	if err := reg.Verify(req); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	if req.Seq != 1 {
		t.Errorf("seq = %d, want 1", req.Seq)
	}
	if req.ID() != "alice/1" {
		t.Errorf("id = %q", req.ID())
	}
	// Sequence numbers increase.
	if s.Sign(Op{Type: OpRead, Key: "k"}).Seq != 2 {
		t.Error("seq did not increase")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	s, _ := NewSigner("alice")
	reg := NewRegistry()
	_ = reg.Register("alice", s.PublicKey())
	req := s.Sign(Op{Type: OpWrite, Key: "k", Value: "v"})

	tampered := *req
	tampered.Op.Value = "evil"
	if err := reg.Verify(&tampered); err == nil {
		t.Error("tampered value accepted")
	}
	tampered = *req
	tampered.Seq = 99
	if err := reg.Verify(&tampered); err == nil {
		t.Error("tampered seq accepted")
	}
	tampered = *req
	tampered.ClientID = "mallory"
	if err := reg.Verify(&tampered); err == nil {
		t.Error("unknown client accepted")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", nil); err == nil {
		t.Error("empty registration should fail")
	}
	if _, err := NewSigner(""); err == nil {
		t.Error("empty client id should fail")
	}
}

func TestKVStoreApplyAndDedup(t *testing.T) {
	kv := NewKVStore()
	s, _ := NewSigner("alice")
	w1 := s.Sign(Op{Type: OpWrite, Key: "x", Value: "1"})
	if res, err := kv.Apply(w1); err != nil || res != "1" {
		t.Fatalf("apply = %q, %v", res, err)
	}
	// Re-applying the same request is idempotent on the state.
	w2 := s.Sign(Op{Type: OpWrite, Key: "x", Value: "2"})
	if _, err := kv.Apply(w2); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Apply(w1); err != nil { // stale duplicate
		t.Fatal(err)
	}
	r := s.Sign(Op{Type: OpRead, Key: "x"})
	if res, _ := kv.Apply(r); res != "2" {
		t.Errorf("stale write overwrote newer state: read = %q, want 2", res)
	}
	if n := applied(t, kv); n != 4 {
		t.Errorf("applied = %d, want 4", n)
	}
	bad := s.Sign(Op{Type: OpType(99), Key: "x"})
	if _, err := kv.Apply(bad); err == nil {
		t.Error("unknown op should fail")
	}
}

// applied returns the executed-operation count kv's snapshot carries.
func applied(t *testing.T, kv *KVStore) uint64 {
	t.Helper()
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Applied uint64 `json:"applied"`
	}
	if err := json.Unmarshal(snap, &s); err != nil {
		t.Fatal(err)
	}
	return s.Applied
}

func TestKVStoreDigestDeterminism(t *testing.T) {
	build := func(order []string) *KVStore {
		kv := NewKVStore()
		s, _ := NewSigner("c")
		for _, k := range order {
			kv.Apply(s.Sign(Op{Type: OpWrite, Key: k, Value: "v-" + k}))
		}
		return kv
	}
	a := build([]string{"a", "b", "c"})
	b := build([]string{"a", "b", "c"})
	if a.Digest() != b.Digest() {
		t.Error("same history produced different digests")
	}
	c := build([]string{"a", "b", "d"})
	if a.Digest() == c.Digest() {
		t.Error("different state produced same digest")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	kv := NewKVStore()
	s, _ := NewSigner("c")
	for i := 0; i < 10; i++ {
		kv.Apply(s.Sign(Op{Type: OpWrite, Key: string(rune('a' + i)), Value: "v"}))
	}
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewKVStore()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != kv.Digest() {
		t.Error("restored digest differs")
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, snap) {
		t.Errorf("restored store snapshots to %s, want %s (err %v)", again, snap, err)
	}
	if err := restored.Restore([]byte("not json")); err == nil {
		t.Error("bad snapshot should fail")
	}
}

func TestQuorumCollector(t *testing.T) {
	q, err := NewQuorumCollector("alice/1", 1) // need f+1 = 2 matching
	if err != nil {
		t.Fatal(err)
	}
	if _, done := q.Add(Reply{ReplicaID: "r0", RequestID: "alice/1", Result: "ok"}); done {
		t.Error("quorum with one reply")
	}
	// Duplicate replica does not count twice.
	if _, done := q.Add(Reply{ReplicaID: "r0", RequestID: "alice/1", Result: "ok"}); done {
		t.Error("duplicate replica counted")
	}
	// Disagreeing reply does not complete the quorum.
	if _, done := q.Add(Reply{ReplicaID: "r1", RequestID: "alice/1", Result: "bad"}); done {
		t.Error("conflicting replies reached quorum")
	}
	// Wrong request ID ignored.
	if _, done := q.Add(Reply{ReplicaID: "r2", RequestID: "bob/9", Result: "ok"}); done {
		t.Error("foreign reply counted")
	}
	result, done := q.Add(Reply{ReplicaID: "r2", RequestID: "alice/1", Result: "ok"})
	if !done || result != "ok" {
		t.Errorf("quorum = %v/%q, want ok", done, result)
	}
}

func TestQuorumCollectorValidation(t *testing.T) {
	if _, err := NewQuorumCollector("", 1); err == nil {
		t.Error("empty request id should fail")
	}
	if _, err := NewQuorumCollector("x", -1); err == nil {
		t.Error("negative f should fail")
	}
}

// Property: request digests are injective over the signed fields.
func TestRequestDigestProperty(t *testing.T) {
	f := func(c1, c2 string, s1, s2 uint64, k1, k2, v1, v2 string) bool {
		r1 := Request{ClientID: c1, Seq: s1, Op: Op{Type: OpWrite, Key: k1, Value: v1}}
		r2 := Request{ClientID: c2, Seq: s2, Op: Op{Type: OpWrite, Key: k2, Value: v2}}
		same := c1 == c2 && s1 == s2 && k1 == k2 && v1 == v2
		return same == (r1.Digest() == r2.Digest())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
