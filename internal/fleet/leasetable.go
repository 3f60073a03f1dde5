package fleet

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
)

// span is a half-open scenario-index range [start, end).
type span struct{ start, end int }

// coordLease is one outstanding lease in the coordinator's table.
type coordLease struct {
	worker     string
	start, end int
	last       time.Time
}

// outbound is one frame a machine queued for its shell to send.
type outbound struct {
	to   string
	data []byte
}

// coordinator is the lease table of one Coordinate run, as a pure machine.
// It takes one event at a time — a frame from a worker (receive), a tick
// (tick) or the end of the run (drain) — with the time as an argument, and
// queues the frames each event sends for its shell to take with takeSends.
// It reads no clock, owns no endpoint and starts no goroutine.
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

	out []outbound
	tm  coordMetrics
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

// newCoordinator validates the run and builds its state as of now: the
// resumed records are folded as far as they reach, and every index still
// lacking a record is queued for leasing.
func newCoordinator(suite Suite, cfg CoordinatorConfig, now time.Time) (*coordinator, error) {
	suite = suite.withDefaults()
	if err := suite.Validate(); err != nil {
		return nil, err
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
		records:  make(map[int]RunRecord, cfg.Completed.Len()),
		leases:   make(map[uint64]*coordLease),
		workers:  make(map[string]time.Time),
		started:  now,
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

	for rec := range cfg.Completed.records() {
		if err := checkCompleted(rec.Index, rec, total, suite.SeedsPerCell, Shard{}); err != nil {
			return nil, err
		}
		c.records[rec.Index] = *rec
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

// takeSends hands the caller the frames queued since the last call, in the
// order they were queued. The slice is the table's queue, valid until its
// next event.
func (c *coordinator) takeSends() []outbound {
	out := c.out
	c.out = c.out[:0]
	return out
}

// receive handles one frame from worker from at time now. A Records frame
// is the exact bytes a worker splices, decoded in one pass by the record
// codec, and a LeaseRequest the frame codec's one spelling; a frame of any
// other kind goes through proto.Decode. A Records or LeaseRequest frame
// spelled any other way is malformed like any undecodable frame: garbage
// from the network is dropped and counted, never fatal; the one error is
// the OnRecord hook's.
func (c *coordinator) receive(from string, payload []byte, now time.Time) error {
	leaseID, seq, recs, ok := decodeRecordsFrame(payload, c.batch[:0])
	c.batch = recs[:0]
	if ok {
		return c.ingestBatch(from, now, leaseID, seq, recs)
	}
	if bytes.Equal(payload, leaseRequestFrame) {
		c.alive(from, now)
		if lease, ok := c.grant(from, now); ok {
			c.send(from, appendLeaseFrame(make([]byte, 0, maxControlFrame), lease))
		} else {
			// Outstanding leases cover the remaining work; the worker asks
			// again a heartbeat later (it inherits expired ranges that way).
			c.send(from, encode(proto.KindWait, proto.Wait{Drain: c.done()}))
		}
		return nil
	}
	kind, raw, err := proto.Decode(payload)
	if err != nil {
		c.reject()
		return nil
	}
	switch kind {
	case proto.KindHello:
		var h proto.Hello
		if err := proto.Unmarshal(raw, &h); err != nil || h.Version != proto.Version {
			c.reject()
			return nil
		}
		if _, known := c.workers[from]; !known {
			c.logf("coordinator: worker %s connected", from)
		}
		c.alive(from, now)
		c.updateGauges()
		c.send(from, encode(proto.KindWelcome, proto.Welcome{
			Version:         proto.Version,
			Suite:           c.suiteDoc,
			Fingerprint:     c.fp,
			Scenarios:       c.total,
			HeartbeatMillis: int(c.hb / time.Millisecond),
		}))
	case proto.KindHeartbeat:
		var hb proto.Heartbeat
		if err := proto.Unmarshal(raw, &hb); err != nil {
			c.reject()
			return nil
		}
		c.alive(from, now)
		if l, ok := c.leases[hb.LeaseID]; ok {
			l.last = now
		}
		c.tm.beats.Inc()
	case proto.KindGoodbye:
		c.releaseWorker(from)
	default:
		c.reject()
	}
	return nil
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
	c.send(from, appendRecordsAckFrame(make([]byte, 0, maxControlFrame), proto.RecordsAck{LeaseID: leaseID, Seq: seq}))
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
		c.tm.dupes.Inc()
		return nil
	}
	c.records[rec.Index] = *rec
	c.tm.received.Inc()
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
		_, resumed := c.cfg.Completed.get(rec.Index)
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
		c.leases[lease.ID] = &coordLease{worker: worker, start: lease.Start, end: lease.End, last: now}
		if c.endRun == nil {
			c.endRun = c.cfg.Telemetry.Phase("fleet.run")
		}
		c.tm.granted.Inc()
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

// tick expires the leases silent past the timeout as of now, returning
// their incomplete indices to the front of the queue so the replacement
// worker continues where the dead one stopped, forgets workers silent far
// longer, and flags a fleet that is gone. Leases go in ID order and workers
// in address order, so one schedule always replays to the same frames.
func (c *coordinator) tick(now time.Time) {
	c.revoke(true, func(l *coordLease) bool { return now.Sub(l.last) > c.timeout })
	// A worker silent far past the lease timeout is gone; drop it so the
	// connected-workers gauge and the drain broadcast stay honest.
	for _, addr := range slices.Sorted(maps.Keys(c.workers)) {
		if now.Sub(c.workers[addr]) > 4*c.timeout {
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
	released := c.revoke(false, func(l *coordLease) bool { return l.worker == addr })
	if _, known := c.workers[addr]; known {
		delete(c.workers, addr)
		c.logf("coordinator: worker %s left (%d leases released)", addr, released)
	}
	c.updateGauges()
}

// revoke deletes the leases dead reports, in ID order, and puts their
// still-missing indices at the front of the queue in that order; an
// expiry is counted and logged. It returns how many leases went.
func (c *coordinator) revoke(expiry bool, dead func(*coordLease) bool) int {
	var spans []span
	revoked := 0
	for _, id := range slices.Sorted(maps.Keys(c.leases)) {
		l := c.leases[id]
		if !dead(l) {
			continue
		}
		delete(c.leases, id)
		revoked++
		missing := c.missingSpans(l.start, l.end)
		spans = append(spans, missing...)
		if expiry {
			n := 0
			for _, s := range missing {
				n += s.end - s.start
			}
			c.tm.expired.Inc()
			c.logf("coordinator: lease %d [%d,%d) on %s expired after %s silence; %d scenarios re-leased",
				id, l.start, l.end, l.worker, c.timeout, n)
		}
	}
	if len(spans) > 0 {
		c.queue = append(spans, c.queue...)
	}
	return revoked
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

// drain tells every known worker, in address order, that the run is over
// (best effort — a missed drain costs the worker its retries).
func (c *coordinator) drain() {
	for _, addr := range slices.Sorted(maps.Keys(c.workers)) {
		c.send(addr, encode(proto.KindWait, proto.Wait{Drain: true}))
	}
}

// send queues one frame. The frame is its own: the shell may hand it to an
// endpoint that keeps it.
func (c *coordinator) send(to string, data []byte) {
	c.out = append(c.out, outbound{to: to, data: data})
}

func (c *coordinator) reject() {
	c.tm.rejected.Inc()
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
