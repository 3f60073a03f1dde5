package fleet

import (
	"errors"
	"fmt"
	"time"

	"tolerance/internal/fleet/proto"
)

// phase is where a worker session stands.
type phase int

const (
	// phaseHello: the Hello is outstanding; a Welcome ends it.
	phaseHello phase = iota
	// phaseRequest: a LeaseRequest is outstanding; a Lease or a Wait ends it.
	phaseRequest
	// phaseWait: told to wait, the session asks again one heartbeat after
	// the Wait; a Lease answering an earlier request ends it too.
	phaseWait
	// phaseRun: a lease's engine runs and the session heartbeats the lease.
	phaseRun
	// phaseShip: the engine waits on the ack of its Records batch, which is
	// outstanding; the lease is still heartbeated.
	phaseShip
	// phaseOver: the session ended, drained, departed or failed (err).
	phaseOver
)

// Retry budgets of the one outstanding request: a Hello is resent every
// helloTimeout until dialTimeout has passed since the first, any other
// request every max(heartbeat, 1 s) for at most maxAttempts sends.
const (
	helloTimeout = time.Second
	maxAttempts  = 10
)

// errNoReply ends a session whose request went unanswered.
var errNoReply = errors.New("no reply")

// Frames whose bytes never change (leaseRequestFrame is the frame codec's).
var (
	helloFrame   = encode(proto.KindHello, proto.Hello{Version: proto.Version})
	goodbyeFrame = encode(proto.KindGoodbye, proto.Goodbye{})
)

// session is one worker session's side of the lease protocol, as a pure
// machine. It takes one event at a time with the time as an argument — a
// coordinator frame (receive), a tick (tick), a full Records batch from
// the lease's engine (batch), the engine's end (finished) or a departure
// (leave) — and queues the frames each event sends for its shell to take
// with takeSends. It reads no clock, owns no endpoint and runs no engine:
// the shell starts a lease's engine when the phase turns to phaseRun and
// resumes it when a shipped batch's ack turns it back.
//
// One rule times every retry: the outstanding request (the Hello, a
// LeaseRequest or the unacked Records batch) is resent at the first tick
// at least its attempt timeout after its last send, and a Wait is answered
// by asking again one heartbeat later. A drain ends the session from any
// phase.
type session struct {
	coordinator string
	logf        func(format string, args ...any)

	phase phase
	// err is the session's outcome once over: nil after a departure or a
	// drain that followed a lease, ErrDrained after one that did not,
	// otherwise why it failed.
	err error

	// The Welcome's suite, its scenario count and the heartbeat interval.
	suite Suite
	total int
	hb    time.Duration

	// The outstanding request: its frame, its last send, how many sends it
	// has had, its attempt timeout, and the Hello's deadline.
	req      []byte
	sentAt   time.Time
	attempts int
	timeout  time.Duration
	deadline time.Time

	lease  proto.Lease // the held lease in phaseRun and phaseShip
	leases int         // leases started
	seq    int         // the batch whose ack phaseShip awaits
	beatAt time.Time   // the lease's last heartbeat, or its start

	out [][]byte
}

// newSession starts a session at now by sending the Hello.
func newSession(coordinator string, logf func(string, ...any), now time.Time) *session {
	s := &session{coordinator: coordinator, logf: logf, deadline: now.Add(dialTimeout)}
	s.request(phaseHello, helloFrame, helloTimeout, now)
	return s
}

// takeSends hands the caller the frames queued since the last call. The
// slice is the session's queue, valid until its next event.
func (s *session) takeSends() [][]byte {
	out := s.out
	s.out = s.out[:0]
	return out
}

// receive handles one coordinator frame at now. Only the frame the phase
// awaits moves it on, and a drain notice ends the session; anything else —
// undecodable, malformed, a lease outside the suite, a stray — is dropped.
// A Lease or RecordsAck is one only in the frame codec's spelling; in any
// other it is malformed.
func (s *session) receive(payload []byte, now time.Time) {
	if s.phase == phaseOver {
		return
	}
	if l, ok := decodeLeaseFrame(payload); ok {
		if (s.phase == phaseRequest || s.phase == phaseWait) && validLease(l, s.total) {
			s.phase, s.lease, s.beatAt = phaseRun, l, now
			s.leases++
			if s.logf != nil { // boxing the arguments allocates
				s.logf("worker: lease %d — scenarios [%d,%d)", l.ID, l.Start, l.End)
			}
		}
		return
	}
	if ack, ok := decodeRecordsAckFrame(payload); ok {
		if s.phase == phaseShip && ack == (proto.RecordsAck{LeaseID: s.lease.ID, Seq: s.seq}) {
			s.phase = phaseRun
		}
		return
	}
	kind, raw, err := proto.Decode(payload)
	if err != nil {
		return
	}
	switch kind {
	case proto.KindWait:
		var w proto.Wait
		switch {
		case proto.Unmarshal(raw, &w) != nil:
		case w.Drain:
			s.drain()
		case s.phase == phaseRequest:
			// Nothing to lease yet: ask again one heartbeat from now.
			s.phase, s.sentAt, s.timeout = phaseWait, now, s.hb
		}
	case proto.KindWelcome:
		if s.phase == phaseHello {
			s.welcome(raw, now)
		}
	}
}

// welcome checks the Welcome's suite and asks for the first lease.
func (s *session) welcome(raw []byte, now time.Time) {
	var w proto.Welcome
	if err := proto.Unmarshal(raw, &w); err != nil {
		s.fail(err)
		return
	}
	if w.Version != proto.Version {
		s.fail(fmt.Errorf("fleet: coordinator speaks protocol v%d, this worker v%d", w.Version, proto.Version))
		return
	}
	suite, err := ParseSuite(w.Suite)
	if err != nil {
		s.fail(fmt.Errorf("fleet: coordinator sent a bad suite: %w", err))
		return
	}
	if got := suite.Fingerprint(); got != w.Fingerprint {
		s.fail(fmt.Errorf("fleet: suite fingerprint mismatch: coordinator says %s, parsed %s", w.Fingerprint, got))
		return
	}
	if got := suite.NumScenarios(); got != w.Scenarios {
		s.fail(fmt.Errorf("fleet: scenario count mismatch: coordinator says %d, suite expands to %d", w.Scenarios, got))
		return
	}
	s.suite, s.total = suite, w.Scenarios
	s.hb = time.Duration(w.HeartbeatMillis) * time.Millisecond
	if s.hb <= 0 {
		s.hb = DefaultHeartbeat
	}
	if s.logf != nil {
		s.logf("worker: joined %s — suite %s (%s), %d scenarios, heartbeat %s",
			s.coordinator, suite.Name, w.Fingerprint, w.Scenarios, s.hb)
	}
	s.request(phaseRequest, leaseRequestFrame, s.attempt(), now)
}

// tick heartbeats a held lease and applies the retry rule at now.
func (s *session) tick(now time.Time) {
	switch s.phase {
	case phaseOver:
		return
	case phaseRun, phaseShip:
		if now.Sub(s.beatAt) >= s.hb {
			s.out = append(s.out, encode(proto.KindHeartbeat, proto.Heartbeat{LeaseID: s.lease.ID}))
			s.beatAt = now
		}
		if s.phase == phaseRun {
			return
		}
	}
	switch {
	case now.Sub(s.sentAt) < s.timeout:
	case s.phase == phaseWait:
		s.request(phaseRequest, leaseRequestFrame, s.attempt(), now)
	case s.phase == phaseHello && now.Before(s.deadline), s.phase != phaseHello && s.attempts < maxAttempts:
		s.out = append(s.out, s.req)
		s.sentAt = now
		s.attempts++
	default:
		s.fail(fmt.Errorf("fleet: coordinator %s unreachable: %w to %d sends", s.coordinator, errNoReply, s.attempts))
	}
}

// batch ships Records batch seq of the held lease, frame, and holds the
// engine until its ack. The frame is resent as it is, so the caller must
// not touch it before the phase is back at phaseRun.
func (s *session) batch(seq int, frame []byte, now time.Time) {
	if s.phase == phaseRun {
		s.seq = seq
		s.request(phaseShip, frame, s.attempt(), now)
	}
}

// finished ends the held lease — the engine ran it and every batch is
// acked — and asks for the next.
func (s *session) finished(now time.Time) {
	if s.phase == phaseRun {
		s.request(phaseRequest, leaseRequestFrame, s.attempt(), now)
	}
}

// leave ends the session on the worker's own account; a Goodbye lets the
// coordinator re-lease what the worker held at once.
func (s *session) leave() {
	if s.phase == phaseOver {
		return
	}
	if s.phase != phaseHello {
		s.out = append(s.out, goodbyeFrame)
	}
	s.phase = phaseOver
}

// request makes data the outstanding request of phase p, with attempt
// timeout timeout, and sends it.
func (s *session) request(p phase, data []byte, timeout time.Duration, now time.Time) {
	s.phase, s.req, s.timeout = p, data, timeout
	s.out = append(s.out, data)
	s.sentAt, s.attempts = now, 1
}

// attempt is the attempt timeout of a request after the Hello.
func (s *session) attempt() time.Duration { return max(s.hb, time.Second) }

func (s *session) drain() {
	if s.logf != nil {
		s.logf("worker: drained after %d leases", s.leases)
	}
	s.phase = phaseOver
	if s.leases == 0 {
		s.err = ErrDrained
	}
}

func (s *session) fail(err error) {
	s.phase, s.err = phaseOver, err
}

// validLease reports whether l is a non-empty index range of a suite with
// total scenarios — the only leases the engine may execute.
func validLease(l proto.Lease, total int) bool {
	return 0 <= l.Start && l.Start < l.End && l.End <= total
}

// encode frames a payload whose type always encodes.
func encode(kind proto.Kind, payload any) []byte {
	data, err := proto.Encode(kind, payload)
	if err != nil {
		panic(err)
	}
	return data
}
