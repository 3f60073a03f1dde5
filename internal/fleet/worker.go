package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tolerance/internal/chaos"
	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// workerBatchRecords is how many completed records a worker accumulates
// before shipping a Records batch (well under the transport frame cap).
const workerBatchRecords = 64

// dialTimeout bounds how long a worker keeps retrying the initial
// handshake — long enough to start the worker before its coordinator.
const dialTimeout = 30 * time.Second

// ErrDrained is returned by ConnectWorker when the coordinator drains the
// worker before granting it any lease — the run was already complete (or
// shutting down) when the worker arrived. It is informational, not a
// failure.
var ErrDrained = errors.New("fleet: coordinator drained the worker")

// WorkerConfig tunes one worker session (ConnectWorker).
type WorkerConfig struct {
	// Endpoint is the worker's transport endpoint. Its advertised address
	// must be dialable from the coordinator (see
	// transport.ListenTCPAdvertise). The caller owns it; ConnectWorker
	// does not close it.
	Endpoint transport.Endpoint
	// Coordinator is the coordinator's host:port address.
	Coordinator string
	// Workers bounds the local execution pool inside each lease, exactly
	// like Config.Workers (zero = GOMAXPROCS).
	Workers int
	// Cache supplies the strategy cache shared across the session's
	// leases, so policies solve and the suite Ẑ fits once per worker
	// process; nil creates a fresh one.
	Cache *StrategyCache
	// Telemetry, when set, instruments the local engine runs (the usual
	// fleet.* metrics) — side-channel only, like everywhere else.
	Telemetry *telemetry.Collector
	// Chaos is the armed fault-injection plan (nil = off), threaded into
	// each lease's engine Config so non-emulation backends inject faults
	// too. The worker's wire endpoint is wrapped separately by the caller.
	Chaos *chaos.Plan
	// Logf, when set, receives operational one-liners (handshake, leases,
	// drain). It must not write to stdout.
	Logf func(format string, args ...any)

	// testFailAfterRecords, when positive, makes the session fail hard
	// after sending that many records — the lease-expiry tests' simulated
	// mid-range kill (no Goodbye is sent, exactly like SIGKILL).
	testFailAfterRecords int
	// testBatchRecords overrides workerBatchRecords in tests.
	testBatchRecords int
}

// errWorkerKilled is the test hook's simulated hard kill.
var errWorkerKilled = errors.New("fleet: worker test kill")

// errSessionDrained unwinds a call that can never complete because the
// coordinator declared the run over (a drain notice arrived while waiting
// for a different reply — typically an ack for records another worker's
// re-lease already delivered). The lease loop turns it into a clean exit.
var errSessionDrained = errors.New("fleet: session drained")

// workerSession is the in-flight state of one ConnectWorker call.
type workerSession struct {
	cfg     WorkerConfig
	plan    *plan // the suite's engine state, built once per session
	total   int
	hb      time.Duration
	leaseTO time.Duration
	drained bool
	sent    int
	// records is the Records frame being filled; one buffer serves every
	// batch of the session, since each Endpoint writes or copies a payload
	// before Send returns.
	records []byte
	// folded counts fleet.scenarios_folded: records handed to a frame (nil
	// when telemetry is off). A worker folds nothing — the coordinator does.
	folded *telemetry.Counter

	// sendBO paces send-failure retries inside call. It jitters from a
	// seed derived from the endpoint address, so a worker's retry cadence
	// is reproducible yet staggered against its siblings'.
	sendBO *expBackoff
}

// ConnectWorker joins a coordinator (Coordinate / tolerance-fleet -serve)
// as a remote fleet worker: it performs the Hello/Welcome handshake,
// receives the suite definition over the wire, then loops — lease a
// scenario range, execute it on the local engine with the usual
// deterministic per-index seeding, stream the records back in batches
// (resent until acknowledged), heartbeat while running — until the
// coordinator drains it. Returns nil after a drain that followed at least
// one lease; ErrDrained if the worker never got work.
//
// Cancelling ctx is the graceful exit: the in-flight lease's engine drains,
// its completed record prefix is already shipped, and a best-effort
// Goodbye lets the coordinator re-lease the remainder immediately instead
// of waiting out the lease timeout. A worker killed without Goodbye loses
// nothing either — its lease simply expires.
func ConnectWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Endpoint == nil {
		return fmt.Errorf("%w: worker needs a transport endpoint", ErrBadSuite)
	}
	if cfg.Coordinator == "" {
		return fmt.Errorf("%w: worker needs a coordinator address", ErrBadSuite)
	}
	if cfg.Cache == nil {
		cfg.Cache = NewStrategyCache()
	}
	if cfg.testBatchRecords <= 0 {
		cfg.testBatchRecords = workerBatchRecords
	}
	s := &workerSession{cfg: cfg}
	s.sendBO = newBackoff(50*time.Millisecond, time.Second, cfg.Endpoint.Addr()+"/send")
	if cfg.Telemetry != nil {
		s.folded = cfg.Telemetry.Counter(MetricScenariosFolded)
	}
	if err := s.handshake(ctx); err != nil {
		return err
	}
	leases := 0
	for {
		if err := ctx.Err(); err != nil {
			s.goodbye()
			return err
		}
		lease, drained, err := s.requestLease(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.goodbye()
			}
			return err
		}
		if drained {
			s.logf("worker: drained after %d leases", leases)
			if leases == 0 {
				return ErrDrained
			}
			return nil
		}
		if err := s.runLease(ctx, lease); err != nil {
			if errors.Is(err, context.Canceled) {
				s.goodbye()
				return err
			}
			if errors.Is(err, errSessionDrained) {
				// The run finished without this lease's remainder; the next
				// requestLease observes s.drained and exits cleanly.
				leases++
				continue
			}
			return err
		}
		leases++
	}
}

// handshake performs Hello → Welcome, resending until dialTimeout runs
// out, so workers can start before the coordinator is listening.
func (s *workerSession) handshake(ctx context.Context) error {
	hello, err := proto.Encode(proto.KindHello, proto.Hello{Version: proto.Version})
	if err != nil {
		return err
	}
	_, raw, err := s.call(ctx, proto.KindHello, hello, time.Second, time.Now().Add(dialTimeout), matchWelcome)
	if errors.Is(err, errSessionDrained) {
		// The run ended while we were still saying hello.
		return ErrDrained
	}
	if err != nil {
		return err
	}
	var w proto.Welcome
	if err := proto.Unmarshal(raw, &w); err != nil {
		return err
	}
	if w.Version != proto.Version {
		return fmt.Errorf("fleet: coordinator speaks protocol v%d, this worker v%d", w.Version, proto.Version)
	}
	suite, err := ParseSuite(w.Suite)
	if err != nil {
		return fmt.Errorf("fleet: coordinator sent a bad suite: %w", err)
	}
	if got := suite.Fingerprint(); got != w.Fingerprint {
		return fmt.Errorf("fleet: suite fingerprint mismatch: coordinator says %s, parsed %s", w.Fingerprint, got)
	}
	if got := suite.NumScenarios(); got != w.Scenarios {
		return fmt.Errorf("fleet: scenario count mismatch: coordinator says %d, suite expands to %d", w.Scenarios, got)
	}
	s.plan, s.total = newPlan(suite), w.Scenarios
	s.hb = time.Duration(w.HeartbeatMillis) * time.Millisecond
	if s.hb <= 0 {
		s.hb = DefaultHeartbeat
	}
	s.leaseTO = time.Duration(w.LeaseTimeoutMillis) * time.Millisecond
	if s.leaseTO <= 0 {
		s.leaseTO = leaseTimeoutBeats * s.hb
	}
	s.logf("worker: joined %s — suite %s (%s), %d scenarios, heartbeat %s",
		s.cfg.Coordinator, suite.Name, w.Fingerprint, w.Scenarios, s.hb)
	return nil
}

// requestLease asks for the next range until the coordinator grants one or
// drains the session.
func (s *workerSession) requestLease(ctx context.Context) (proto.Lease, bool, error) {
	request, err := proto.Encode(proto.KindLeaseRequest, proto.LeaseRequest{})
	if err != nil {
		return proto.Lease{}, false, err
	}
	var lease proto.Lease
	match := matchLease(s.total, &lease)
	attempt := max(s.hb, time.Second)
	for {
		if s.drained {
			return proto.Lease{}, true, nil
		}
		kind, raw, err := s.call(ctx, proto.KindLeaseRequest, request, attempt, time.Now().Add(10*attempt), match)
		if err != nil {
			return proto.Lease{}, false, err
		}
		if kind == proto.KindLease {
			return lease, false, nil
		}
		var wait proto.Wait
		if uerr := proto.Unmarshal(raw, &wait); uerr == nil {
			if wait.Drain {
				return proto.Lease{}, true, nil
			}
			// The server's hint is advice, not an order: clamp it to sane
			// bounds (a corrupted-but-parseable frame must not park us for
			// an hour) and never sleep past the lease timeout — an expired
			// range needs a taker within one timeout. The wait reads the
			// endpoint throughout: a Lease answering an earlier attempt of
			// the request that drew the Wait ends it, and so does a drain.
			backoff := min(clampServerBackoff(wait.BackoffMillis, s.hb), max(s.leaseTO, s.hb))
			_, _, granted, err := s.await(ctx, backoff, func(k proto.Kind, raw json.RawMessage) bool {
				return k == proto.KindLease && match(k, raw)
			})
			switch {
			case errors.Is(err, errSessionDrained):
				return proto.Lease{}, true, nil
			case err != nil:
				return proto.Lease{}, false, err
			case granted:
				return lease, false, nil
			}
		}
	}
}

// validLease reports whether l is a non-empty index range of a suite with
// total scenarios — the only leases the engine may execute.
func validLease(l proto.Lease, total int) bool {
	return 0 <= l.Start && l.Start < l.End && l.End <= total
}

// matchWelcome is the handshake's reply matcher.
func matchWelcome(k proto.Kind, _ json.RawMessage) bool { return k == proto.KindWelcome }

// matchLease is requestLease's reply matcher: a Wait, or a Lease that
// parses into a valid range of a suite with total scenarios, which it
// stores in *lease. Any other Lease is dropped like a malformed frame.
func matchLease(total int, lease *proto.Lease) func(proto.Kind, json.RawMessage) bool {
	return func(k proto.Kind, raw json.RawMessage) bool {
		switch k {
		case proto.KindWait:
			return true
		case proto.KindLease:
			var l proto.Lease
			if proto.Unmarshal(raw, &l) != nil || !validLease(l, total) {
				return false
			}
			*lease = l
			return true
		}
		return false
	}
}

// matchAck is shipRecords' reply matcher: the RecordsAck of batch
// (leaseID, seq).
func matchAck(leaseID uint64, seq int) func(proto.Kind, json.RawMessage) bool {
	return func(k proto.Kind, raw json.RawMessage) bool {
		if k != proto.KindRecordsAck {
			return false
		}
		var ack proto.RecordsAck
		return proto.Unmarshal(raw, &ack) == nil && ack.LeaseID == leaseID && ack.Seq == seq
	}
}

// runLease executes the leased range on the local engine, heartbeating in
// the background and streaming record batches (resent until acked).
func (s *workerSession) runLease(ctx context.Context, lease proto.Lease) error {
	s.logf("worker: lease %d — scenarios [%d,%d)", lease.ID, lease.Start, lease.End)
	indices := make([]int, 0, lease.End-lease.Start)
	for i := lease.Start; i < lease.End; i++ {
		indices = append(indices, i)
	}

	var done atomic.Int64
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		ticker := time.NewTicker(s.hb)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				s.send(proto.KindHeartbeat, proto.Heartbeat{LeaseID: lease.ID, Done: int(done.Load())})
			}
		}
	}()

	// Each record's canonical bytes go straight into the open Records
	// frame, which ships — and is resent until acked — once it holds a
	// batch.
	batched, seq := 0, 0
	flush := func() error {
		if batched == 0 {
			return nil
		}
		s.records = append(s.records, recordsFrameTail...)
		err := s.shipRecords(ctx, lease.ID, seq, s.records)
		batched = 0
		seq++
		return err
	}
	err := s.plan.execute(ctx, indices, Config{
		Workers:   s.cfg.Workers,
		Cache:     s.cfg.Cache,
		Telemetry: s.cfg.Telemetry,
		Chaos:     s.cfg.Chaos,
	}, func(rec *RunRecord, _ bool) error {
		if batched == 0 {
			s.records = appendRecordsFrameHead(s.records[:0], lease.ID, seq)
		} else {
			s.records = append(s.records, ',')
		}
		var err error
		if s.records, err = appendRecordJSON(s.records, *rec); err != nil {
			return err
		}
		batched++
		done.Add(1)
		s.sent++
		if s.folded != nil {
			s.folded.Inc(0)
		}
		if s.cfg.testFailAfterRecords > 0 && s.sent >= s.cfg.testFailAfterRecords {
			if ferr := flush(); ferr != nil {
				return ferr
			}
			return errWorkerKilled
		}
		if batched >= s.cfg.testBatchRecords {
			return flush()
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Graceful drain: the engine already emitted the completed
			// index-ordered prefix into the frame; ship what we have so the
			// coordinator keeps it, then let the caller send Goodbye.
			_ = flush()
		}
		return err
	}
	return flush()
}

// shipRecords sends the Records frame of batch seq under lease leaseID and
// waits for its ack, resending on timeout. The coordinator dedupes, so
// resending an already-ingested batch is harmless (first write wins).
func (s *workerSession) shipRecords(ctx context.Context, leaseID uint64, seq int, frame []byte) error {
	attempt := max(s.hb, time.Second)
	_, _, err := s.call(ctx, proto.KindRecords, frame, attempt, time.Now().Add(10*attempt), matchAck(leaseID, seq))
	return err
}

// call sends an encoded message of the given kind and waits for a reply
// matching match, resending after attemptTimeout without one (the transport
// may drop either direction) until deadline passes. A failed send waits out
// the send backoff instead. Every wait goes through await, so a reply or a
// drain notice that arrives during it is never missed.
func (s *workerSession) call(ctx context.Context, kind proto.Kind, data []byte, attemptTimeout time.Duration,
	deadline time.Time, match func(proto.Kind, json.RawMessage) bool) (proto.Kind, json.RawMessage, error) {

	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return "", nil, err
		}
		// Consume everything already queued before (re)sending: the reply
		// to an earlier attempt, or — if the coordinator finished the run
		// and exited — a drain notice that is the only message we will
		// ever get, while every send below fails with connection refused.
	queued:
		for {
			select {
			case msg, ok := <-s.cfg.Endpoint.Receive():
				if !ok {
					return "", nil, fmt.Errorf("fleet: worker endpoint closed")
				}
				if k, raw, done, err := s.frame(msg.Payload, match); done || err != nil {
					return k, raw, err
				}
			default:
				break queued
			}
		}
		wait := attemptTimeout
		if lastErr = s.cfg.Endpoint.Send(s.cfg.Coordinator, data); lastErr != nil {
			// Exponential, jittered, capped: an injected connection reset
			// or redial race backs off instead of machine-gunning the
			// coordinator on a fixed cadence.
			wait = s.sendBO.next()
		}
		if k, raw, done, err := s.await(ctx, wait, match); done || err != nil {
			return k, raw, err
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("fleet: no %s reply from %s", kind, s.cfg.Coordinator)
		}
	}
	return "", nil, fmt.Errorf("fleet: coordinator %s unreachable: %w", s.cfg.Coordinator, lastErr)
}

// await reads the endpoint for up to d, handing each frame to frame: it
// ends early with done on the reply match accepts, or with frame's error.
// It is the only place a worker waits on its endpoint under a timer.
func (s *workerSession) await(ctx context.Context, d time.Duration,
	match func(proto.Kind, json.RawMessage) bool) (proto.Kind, json.RawMessage, bool, error) {

	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return "", nil, false, ctx.Err()
		case <-timer.C:
			return "", nil, false, nil
		case msg, ok := <-s.cfg.Endpoint.Receive():
			if !ok {
				return "", nil, false, fmt.Errorf("fleet: worker endpoint closed")
			}
			if k, raw, done, err := s.frame(msg.Payload, match); done || err != nil {
				return k, raw, done, err
			}
		}
	}
}

// frame handles one coordinator frame that arrives while the worker waits:
// done reports that it is the reply match accepts, returned as (k, raw).
// Undecodable frames are dropped. Any other frame is a stray: a drain
// notice sets s.drained, and once the session is drained a stray fails the
// call with errSessionDrained.
func (s *workerSession) frame(payload []byte, match func(proto.Kind, json.RawMessage) bool) (k proto.Kind, raw json.RawMessage, done bool, err error) {
	k, raw, derr := proto.Decode(payload)
	if derr != nil {
		return "", nil, false, nil
	}
	if match(k, raw) {
		s.sendBO.reset()
		return k, raw, true, nil
	}
	s.stray(k, raw)
	if s.drained {
		return "", nil, false, errSessionDrained
	}
	return "", nil, false, nil
}

// stray handles messages that arrive outside their expected window.
func (s *workerSession) stray(k proto.Kind, raw json.RawMessage) {
	if k != proto.KindWait {
		return
	}
	var w proto.Wait
	if proto.Unmarshal(raw, &w) == nil && w.Drain {
		s.drained = true
	}
}

// send encodes and transmits one message to the coordinator.
func (s *workerSession) send(kind proto.Kind, payload any) error {
	data, err := proto.Encode(kind, payload)
	if err != nil {
		return err
	}
	return s.cfg.Endpoint.Send(s.cfg.Coordinator, data)
}

// goodbye announces the departure, best effort.
func (s *workerSession) goodbye() {
	_ = s.send(proto.KindGoodbye, proto.Goodbye{})
}

func (s *workerSession) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
