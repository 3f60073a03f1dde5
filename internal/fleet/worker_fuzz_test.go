package fleet

import (
	"bytes"
	"testing"
	"time"

	"tolerance/internal/fleet/proto"
)

// FuzzWorkerFrames drives the worker session's network parse surface with
// arbitrary frames, straight into the machine. Each input line is one
// frame: its first byte puts a fresh session in a phase (the Hello, a lease
// request, the ack of lease 1's batch 0, a wait, a running lease), the
// rest is the frame. After every frame: a drain ends the session from any
// phase; otherwise a phase ends only on the frame it awaits — a Welcome, a
// Lease or a Wait, a Lease, the batch's ack — and nothing moves a running
// lease; every lease a session starts is a valid range of the suite; and
// only a handshake that ends in a lease request sends anything. A Lease or
// RecordsAck frame counts exactly when it is in its one spelling, stated
// in encoding/json alone (oneSpellingFrame): a waiting session starts
// every valid lease so spelled and no other, and a shipping one takes the
// matching ack so spelled and no other.
func FuzzWorkerFrames(f *testing.F) {
	const total = 8
	phases := []phase{phaseHello, phaseRequest, phaseShip, phaseWait, phaseRun}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			from, payload := phases[int(line[0]-'0')%len(phases)], line[1:]
			now := time.Unix(0, 0)
			s := newSession("coordinator", nil, now)
			s.takeSends()
			if from != phaseHello {
				s.phase, s.total, s.hb = from, total, time.Second
				s.lease, s.leases = proto.Lease{ID: 1, Start: 0, End: 2}, 1
			}
			s.receive(payload, now)
			sent := s.takeSends()

			kind, raw, derr := proto.Decode(payload)
			var lease proto.Lease
			var ack proto.RecordsAck
			isLease := oneSpellingFrame(payload, proto.KindLease, &lease)
			isAck := oneSpellingFrame(payload, proto.KindRecordsAck, &ack)
			var w proto.Wait
			drain := derr == nil && kind == proto.KindWait && proto.Unmarshal(raw, &w) == nil && w.Drain
			if drain {
				if s.phase != phaseOver || (s.err == ErrDrained) != (from == phaseHello) {
					t.Fatalf("%q in phase %d: drain left phase %d, err %v", payload, from, s.phase, s.err)
				}
				continue
			}
			switch to := s.phase; {
			case to == from:
			case from == phaseHello && kind == proto.KindWelcome && to == phaseOver:
				if s.err == nil {
					t.Fatalf("%q: a refused Welcome ended the session without an error", payload)
				}
			case from == phaseHello && kind == proto.KindWelcome && to == phaseRequest:
				var welcome proto.Welcome
				if proto.Unmarshal(raw, &welcome) != nil || s.total != welcome.Scenarios || s.total <= 0 ||
					s.suite.Fingerprint() != welcome.Fingerprint {
					t.Fatalf("%q: joined a suite of %d scenarios the Welcome does not describe", payload, s.total)
				}
			case (from == phaseRequest || from == phaseWait) && kind == proto.KindLease && to == phaseRun:
				if !isLease || lease != s.lease || !validLease(s.lease, total) {
					t.Fatalf("%q: started lease %+v, not a valid range of %d in its one spelling", payload, s.lease, total)
				}
			case from == phaseRequest && kind == proto.KindWait && to == phaseWait:
			case from == phaseShip && kind == proto.KindRecordsAck && to == phaseRun:
				if !isAck || ack != (proto.RecordsAck{LeaseID: 1, Seq: 0}) {
					t.Fatalf("%q: not lease 1's batch 0's ack in its one spelling, but it ended the wait for it", payload)
				}
			default:
				t.Fatalf("%q: phase %d moved to %d on a %q frame", payload, from, to, kind)
			}
			if (from == phaseRequest || from == phaseWait) && isLease && validLease(lease, total) && s.phase != phaseRun {
				t.Fatalf("%q in phase %d: a valid lease in its one spelling left phase %d", payload, from, s.phase)
			}
			if from == phaseShip && isAck && ack == (proto.RecordsAck{LeaseID: 1, Seq: 0}) && s.phase != phaseRun {
				t.Fatalf("%q: the awaited ack in its one spelling left phase %d", payload, s.phase)
			}
			if wantSent := from == phaseHello && s.phase == phaseRequest; (len(sent) > 0) != wantSent ||
				wantSent && !bytes.Equal(sent[0], leaseRequestFrame) {
				t.Fatalf("%q in phase %d: sent %q", payload, from, sent)
			}
		}
	})
}
