package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// Lease-protocol defaults. The coordinator advertises its heartbeat
// interval and lease timeout in the Welcome message, so workers and
// coordinator always agree on the cadence.
const (
	// DefaultHeartbeat is how often a worker heartbeats a held lease.
	DefaultHeartbeat = 1 * time.Second
	// leaseTimeoutBeats is the missed-heartbeat budget: a lease silent
	// for this many heartbeat intervals is expired and re-leased.
	leaseTimeoutBeats = 5
	// maxLeaseScenarios caps the automatic lease size.
	maxLeaseScenarios = 256
)

// CoordinatorConfig tunes one coordinator run (Coordinate).
type CoordinatorConfig struct {
	// Endpoint is the coordinator's listening transport endpoint. The
	// caller owns it; Coordinate does not close it.
	Endpoint transport.Endpoint
	// LeaseScenarios is the number of scenarios per lease. Zero picks
	// total/16 clamped to [1, 256] — small enough that a dead worker's
	// lost work is bounded, large enough that lease traffic is negligible.
	LeaseScenarios int
	// Heartbeat is the keep-alive cadence advertised to workers (zero =
	// DefaultHeartbeat). A lease with no heartbeat or record traffic for
	// five heartbeats expires, and its incomplete indices are re-leased to
	// the next requesting worker.
	Heartbeat time.Duration
	// Completed holds records from an earlier (killed) coordinator run's
	// checkpoint, keyed by scenario index; they fold as replays instead of
	// being leased out again.
	Completed map[int]RunRecord
	// OnRecord, when set, receives every freshly ingested record in strict
	// scenario-index order — the checkpoint write hook, identical in
	// contract to Config.OnRecord. An error aborts the run.
	OnRecord func(RunRecord) error
	// Progress, when set, is called with (folded, total) as the ordered
	// ingest frontier advances.
	Progress func(done, total int)
	// Telemetry, when set, receives the coord.* counters and gauges plus
	// the fleet.scenarios_folded/replayed and fleet.fold_merges counters
	// the summary and manifest read. Side-channel only: the merged Result is byte-identical
	// with or without it.
	Telemetry *telemetry.Collector
	// Logf, when set, receives operational one-liners (worker joins,
	// lease expiries, drains) — the coordinator's stderr narrative. It
	// must not write to stdout, which carries only the deterministic
	// result.
	Logf func(format string, args ...any)
}

// span is a half-open scenario-index range [start, end).
type span struct{ start, end int }

// coordLease is one outstanding lease in the coordinator's table.
type coordLease struct {
	id         uint64
	worker     string
	start, end int
	last       time.Time
}

// coordinator is the in-flight state of one Coordinate run.
type coordinator struct {
	cfg      CoordinatorConfig
	suite    Suite
	suiteDoc []byte
	fp       string
	total    int

	leaseSize int
	hb        time.Duration
	timeout   time.Duration

	// fold is the ordered-ingest frontier: scenarios [0, fold.next) are
	// folded. records holds the ingested records ahead of it.
	fold    *fold
	records map[int]RunRecord
	batch   []RunRecord // decode buffer for one Records batch, reused
	queue   []span
	leases  map[uint64]*coordLease
	nextID  uint64
	workers map[string]time.Time

	// degraded marks the parked state: work remains but no worker has been
	// heard from for at least a lease timeout — the whole fleet partitioned
	// away or dead. The coordinator keeps ticking (leases already expired
	// back into the queue) and logs the transition once per episode instead
	// of spamming. started anchors the grace period before the first worker.
	degraded bool
	started  time.Time

	// endRun ends the fleet.run phase, which opens at the first lease
	// grant, so the wait for the first worker does not dilute the
	// coordinator's scenarios/s. Nil before the grant.
	endRun func()

	tm coordMetrics
}

// coordMetrics bundles the coordinator's telemetry handles.
type coordMetrics struct {
	granted   *telemetry.Counter
	expired   *telemetry.Counter
	received  *telemetry.Counter
	dupes     *telemetry.Counter
	rejected  *telemetry.Counter
	beats     *telemetry.Counter
	workers   *telemetry.Gauge
	pending   *telemetry.Gauge
	leasesOut *telemetry.Gauge
	degraded  *telemetry.Gauge
}

func newCoordMetrics(col *telemetry.Collector) coordMetrics {
	return coordMetrics{
		granted:   col.Counter(MetricCoordLeasesGranted),
		expired:   col.Counter(MetricCoordLeasesExpired),
		received:  col.Counter(MetricCoordRecordsReceived),
		dupes:     col.Counter(MetricCoordRecordsReplayed),
		rejected:  col.Counter(MetricCoordRecordsRejected),
		beats:     col.Counter(MetricCoordHeartbeats),
		workers:   col.Gauge(MetricCoordWorkers),
		pending:   col.Gauge(MetricCoordScenariosPending),
		leasesOut: col.Gauge(MetricCoordLeasesOutstanding),
		degraded:  col.Gauge(MetricCoordDegraded),
	}
}

// Coordinate runs the distributed control plane for a suite: it listens on
// cfg.Endpoint, leases index-contiguous scenario ranges to connecting
// workers (ConnectWorker / tolerance-fleet -connect), ingests their record
// streams with first-write-wins dedupe, and expires and re-leases ranges
// from workers that stop heartbeating. Records fold in strict index order
// as the ingest frontier reaches them, through the same fold a
// single-machine Run uses, so the Result is that run's, byte for byte.
//
// Fresh records reach cfg.OnRecord in index order exactly as Config.
// OnRecord would deliver them, so the existing checkpoint machinery (and
// -resume, via cfg.Completed) works unchanged. Cancelling ctx drains: a
// best-effort shutdown notice is broadcast to connected workers and the
// context error returned; an attached checkpoint then holds the folded
// prefix for a -resume restart.
func Coordinate(ctx context.Context, suite Suite, cfg CoordinatorConfig) (*Result, error) {
	c, err := newCoordinator(suite, cfg)
	if err != nil {
		return nil, err
	}
	c.logf("coordinator: suite %s (%s): %d scenarios, %d already complete, lease size %d, heartbeat %s, lease timeout %s",
		c.suite.Name, c.fp, c.total, len(cfg.Completed), c.leaseSize, c.hb, c.timeout)
	if c.done() {
		// Everything was already in the checkpoint; nothing to serve.
		return c.fold.result(), nil
	}

	c.cfg.Telemetry.Gauge(MetricScenariosTotal).Set(float64(c.total))
	defer func() {
		if c.endRun != nil {
			c.endRun()
		}
	}()

	c.started = time.Now()
	ticker := time.NewTicker(c.hb)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			c.broadcastDrain()
			return nil, ctx.Err()
		case msg, ok := <-c.cfg.Endpoint.Receive():
			if !ok {
				return nil, fmt.Errorf("fleet: coordinator endpoint closed")
			}
			if err := c.handle(msg); err != nil {
				c.broadcastDrain()
				return nil, err
			}
			if c.done() {
				c.broadcastDrain()
				c.logf("coordinator: all %d scenarios ingested; draining workers", c.total)
				return c.fold.result(), nil
			}
		case <-ticker.C:
			c.expireLeases(time.Now())
		}
	}
}

// newCoordinator validates the run and builds its state: the resumed
// records are folded as far as they reach, and every index still lacking a
// record is queued for leasing.
func newCoordinator(suite Suite, cfg CoordinatorConfig) (*coordinator, error) {
	suite = suite.withDefaults()
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("%w: coordinator needs a transport endpoint", ErrBadSuite)
	}
	total := suite.NumScenarios()
	if total == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSuite)
	}
	doc, err := DumpSuite(suite)
	if err != nil {
		return nil, err
	}

	c := &coordinator{
		cfg:      cfg,
		suite:    suite,
		suiteDoc: doc,
		fp:       suite.Fingerprint(),
		total:    total,
		fold:     newFold(suite, suite.Cells(), total, cfg.OnRecord, cfg.Progress, cfg.Telemetry),
		records:  make(map[int]RunRecord, len(cfg.Completed)),
		leases:   make(map[uint64]*coordLease),
		workers:  make(map[string]time.Time),
		tm:       newCoordMetrics(cfg.Telemetry),
	}
	c.hb = cfg.Heartbeat
	if c.hb <= 0 {
		c.hb = DefaultHeartbeat
	}
	c.timeout = leaseTimeoutBeats * c.hb
	c.leaseSize = cfg.LeaseScenarios
	if c.leaseSize <= 0 {
		c.leaseSize = min(max(total/16, 1), maxLeaseScenarios)
	}

	for idx, rec := range cfg.Completed {
		if err := checkCompleted(idx, &rec, total, suite.SeedsPerCell, Shard{}); err != nil {
			return nil, err
		}
		c.records[idx] = rec
	}
	// Fold the resumed prefix before serving, so Progress and the pending
	// gauge reflect the checkpoint from the first tick. Replays never reach
	// OnRecord — the checkpoint already holds them.
	if err := c.advance(); err != nil {
		return nil, err
	}
	c.queue = c.missingSpans(0, total)
	c.updateGauges()
	return c, nil
}

// handle dispatches one inbound protocol message. A Records frame in the
// exact shape a worker splices decodes in one pass through the record
// codec; every other frame — any other kind, or a Records frame spelled
// some other way — goes through proto.Decode, so the accepted set, the
// rejects and the acks are encoding/json's.
func (c *coordinator) handle(msg transport.Message) error {
	now := time.Now()
	leaseID, seq, recs, ok := decodeRecordsFrame(msg.Payload, c.batch[:0])
	c.batch = recs[:0]
	if ok {
		return c.ingestBatch(msg.From, now, leaseID, seq, recs)
	}
	kind, payload, err := proto.Decode(msg.Payload)
	if err != nil {
		c.reject()
		return nil // garbage from the network is dropped, not fatal
	}
	switch kind {
	case proto.KindHello:
		var h proto.Hello
		if err := proto.Unmarshal(payload, &h); err != nil || h.Version != proto.Version {
			c.reject()
			return nil
		}
		if _, known := c.workers[msg.From]; !known {
			c.logf("coordinator: worker %s connected", msg.From)
		}
		c.alive(msg.From, now)
		c.updateGauges()
		c.send(msg.From, proto.KindWelcome, proto.Welcome{
			Version:            proto.Version,
			Suite:              c.suiteDoc,
			Fingerprint:        c.fp,
			Scenarios:          c.total,
			HeartbeatMillis:    int(c.hb / time.Millisecond),
			LeaseTimeoutMillis: int(c.timeout / time.Millisecond),
		})
	case proto.KindLeaseRequest:
		c.alive(msg.From, now)
		if lease, ok := c.grant(msg.From, now); ok {
			c.send(msg.From, proto.KindLease, lease)
		} else if c.done() {
			c.send(msg.From, proto.KindWait, proto.Wait{Drain: true})
		} else {
			// Outstanding leases cover the remaining work; the worker backs
			// off and asks again (it inherits expired ranges that way).
			c.send(msg.From, proto.KindWait, proto.Wait{
				BackoffMillis: c.waitBackoffMillis(),
			})
		}
	case proto.KindRecords:
		var batch proto.Records
		if err := proto.Unmarshal(payload, &batch); err != nil {
			c.reject()
			return nil
		}
		recs := c.batch[:0]
		for _, raw := range batch.Records {
			// A canonical record takes the codec's fast path; any other
			// spelling is encoding/json's to judge.
			rec, _, _, ok := decodeRecordLine(raw)
			if !ok && json.Unmarshal(raw, &rec) != nil {
				c.reject()
				continue
			}
			recs = append(recs, rec)
		}
		c.batch = recs[:0]
		return c.ingestBatch(msg.From, now, batch.LeaseID, batch.Seq, recs)
	case proto.KindHeartbeat:
		var hb proto.Heartbeat
		if err := proto.Unmarshal(payload, &hb); err != nil {
			c.reject()
			return nil
		}
		c.alive(msg.From, now)
		if l, ok := c.leases[hb.LeaseID]; ok {
			l.last = now
		}
		c.tm.beats.Inc(0)
	case proto.KindGoodbye:
		c.releaseWorker(msg.From)
	default:
		c.reject()
	}
	return nil
}

// waitBackoffMillis is the adaptive backoff hint sent with a workless
// Wait: one heartbeat interval when little is outstanding (the next lease
// frees up soon), scaling with outstanding-lease pressure — many live
// leases mean the idle worker will be told "no" for a while, so polling on
// every heartbeat is pure load on a coordinator that is already busy
// ingesting — and clamped to the lease timeout so an expired range never
// waits long for a taker. Workers clamp the hint again on their side;
// neither end trusts the other's arithmetic.
func (c *coordinator) waitBackoffMillis() int {
	d := c.hb * time.Duration(1+min(len(c.leases), 4))
	return int(min(d, c.timeout) / time.Millisecond)
}

// ingestBatch takes the decoded records of Records batch seq under lease
// leaseID from worker from: the batch refreshes the lease, its records
// ingest in order, and the ack goes back.
func (c *coordinator) ingestBatch(from string, now time.Time, leaseID uint64, seq int, recs []RunRecord) error {
	c.alive(from, now)
	if l, ok := c.leases[leaseID]; ok {
		l.last = now
	}
	for i := range recs {
		if err := c.ingest(&recs[i]); err != nil {
			return err
		}
	}
	c.send(from, proto.KindRecordsAck, proto.RecordsAck{LeaseID: leaseID, Seq: seq})
	c.completeLease(leaseID)
	return nil
}

// ingest validates and dedupes one wire record, folding it through the
// ordered frontier. First write wins: a duplicate index — a retransmitted
// batch, or a re-leased range both the dead and the replacement worker
// executed — counts as a replay and is dropped, which is sound because
// record bytes are a pure function of (suite, index).
func (c *coordinator) ingest(rec *RunRecord) error {
	if checkCompleted(rec.Index, rec, c.total, c.suite.SeedsPerCell, Shard{}) != nil {
		c.reject()
		return nil
	}
	if c.has(rec.Index) {
		c.tm.dupes.Inc(0)
		return nil
	}
	c.records[rec.Index] = *rec
	c.tm.received.Inc(0)
	if err := c.advance(); err != nil {
		return err
	}
	c.updateGauges()
	return nil
}

// advance folds every record the frontier reaches — fresh ones through
// OnRecord (the checkpoint hook), resumed ones as replays — and drops it,
// so the checkpoint is an index-ordered prefix as a local run writes it.
func (c *coordinator) advance() error {
	for {
		rec, ok := c.records[c.fold.next]
		if !ok {
			return nil
		}
		delete(c.records, rec.Index)
		_, resumed := c.cfg.Completed[rec.Index]
		if err := c.fold.add(&rec, !resumed); err != nil {
			return err
		}
	}
}

// has reports whether scenario idx has a record, folded or not.
func (c *coordinator) has(idx int) bool {
	_, ok := c.records[idx]
	return ok || idx < c.fold.next
}

// done reports whether every scenario has been folded.
func (c *coordinator) done() bool { return c.fold.next == c.total }

// grant pops the next lease-sized chunk off the pending queue.
func (c *coordinator) grant(worker string, now time.Time) (proto.Lease, bool) {
	for len(c.queue) > 0 {
		s := c.queue[0]
		if s.start >= s.end {
			c.queue = c.queue[1:]
			continue
		}
		end := min(s.start+c.leaseSize, s.end)
		lease := proto.Lease{ID: c.nextID, Start: s.start, End: end}
		c.nextID++
		if end == s.end {
			c.queue = c.queue[1:]
		} else {
			c.queue[0].start = end
		}
		c.leases[lease.ID] = &coordLease{
			id: lease.ID, worker: worker, start: lease.Start, end: lease.End, last: now,
		}
		if c.endRun == nil {
			c.endRun = c.cfg.Telemetry.Phase("fleet.run")
		}
		c.tm.granted.Inc(0)
		c.updateGauges()
		return lease, true
	}
	return proto.Lease{}, false
}

// completeLease retires a lease once every index of its range has a
// record. A finished range needs no more heartbeats — without this, the
// worker moves on to its next lease and the finished one would sit in the
// table until it "expired", polluting coord.leases_expired (which must
// count only genuinely dead leases) and the outstanding-leases gauge.
func (c *coordinator) completeLease(id uint64) {
	l, ok := c.leases[id]
	if !ok {
		return
	}
	for i := l.start; i < l.end; i++ {
		if !c.has(i) {
			return
		}
	}
	delete(c.leases, id)
	c.updateGauges()
}

// expireLeases revokes leases that have been silent past the timeout and
// returns their incomplete indices to the front of the queue, so the
// replacement worker continues where the dead one stopped.
func (c *coordinator) expireLeases(now time.Time) {
	for id, l := range c.leases {
		if now.Sub(l.last) <= c.timeout {
			continue
		}
		delete(c.leases, id)
		missing := c.requeue(l.start, l.end)
		c.tm.expired.Inc(0)
		c.logf("coordinator: lease %d [%d,%d) on %s expired after %s silence; %d scenarios re-leased",
			id, l.start, l.end, l.worker, c.timeout, missing)
	}
	// A worker silent far past the lease timeout is gone; drop it so the
	// connected-workers gauge and the drain broadcast stay honest.
	for addr, last := range c.workers {
		if now.Sub(last) > 4*c.timeout {
			delete(c.workers, addr)
			c.logf("coordinator: worker %s presumed dead", addr)
		}
	}
	// Graceful degradation: work remains but every worker is gone —
	// partitioned away, crashed, or never arrived. The expiries above
	// already parked their leases back in the queue; nothing is served
	// until a worker reappears, so flag the episode once and keep waiting
	// instead of spinning through grant attempts against an empty room.
	if !c.degraded && len(c.workers) == 0 && !c.done() && now.Sub(c.started) > c.timeout {
		c.degraded = true
		c.tm.degraded.Set(1)
		c.logf("coordinator: degraded — %d scenarios pending, no reachable workers; leases parked until the fleet returns",
			c.total-c.fold.next-len(c.records))
	}
	c.updateGauges()
}

// alive records a sign of life from a worker, ending any degraded episode.
func (c *coordinator) alive(addr string, now time.Time) {
	c.workers[addr] = now
	if c.degraded {
		c.degraded = false
		c.tm.degraded.Set(0)
		c.logf("coordinator: recovered — worker %s reachable, resuming lease service", addr)
	}
}

// releaseWorker handles a voluntary departure: every lease the worker
// holds is requeued immediately, skipping the expiry timeout.
func (c *coordinator) releaseWorker(addr string) {
	released := 0
	for id, l := range c.leases {
		if l.worker != addr {
			continue
		}
		delete(c.leases, id)
		c.requeue(l.start, l.end)
		released++
	}
	if _, known := c.workers[addr]; known {
		delete(c.workers, addr)
		c.logf("coordinator: worker %s left (%d leases released)", addr, released)
	}
	c.updateGauges()
}

// requeue prepends the still-missing indices of [start, end) to the
// pending queue and reports how many there were.
func (c *coordinator) requeue(start, end int) int {
	spans := c.missingSpans(start, end)
	missing := 0
	for _, s := range spans {
		missing += s.end - s.start
	}
	if missing > 0 {
		c.queue = append(spans, c.queue...)
	}
	return missing
}

// missingSpans lists the maximal ranges of [start, end) with no record yet.
func (c *coordinator) missingSpans(start, end int) []span {
	var spans []span
	for i := start; i < end; i++ {
		if c.has(i) {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1].end == i {
			spans[n-1].end = i + 1
		} else {
			spans = append(spans, span{i, i + 1})
		}
	}
	return spans
}

// broadcastDrain tells every known worker the run is over (best effort —
// a missed drain only costs the worker its handshake retries).
func (c *coordinator) broadcastDrain() {
	for addr := range c.workers {
		c.send(addr, proto.KindWait, proto.Wait{Drain: true})
	}
}

// send encodes and transmits one message, best effort: a dead peer's lease
// expiry — not the send path — is what guarantees progress.
func (c *coordinator) send(to string, kind proto.Kind, payload any) {
	data, err := proto.Encode(kind, payload)
	if err != nil {
		return
	}
	_ = c.cfg.Endpoint.Send(to, data)
}

func (c *coordinator) reject() {
	c.tm.rejected.Inc(0)
}

func (c *coordinator) updateGauges() {
	c.tm.workers.Set(float64(len(c.workers)))
	c.tm.pending.Set(float64(c.total - c.fold.next - len(c.records)))
	c.tm.leasesOut.Set(float64(len(c.leases)))
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
