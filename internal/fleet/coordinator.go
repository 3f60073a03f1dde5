package fleet

import (
	"context"
	"fmt"
	"time"

	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// Lease-protocol defaults. The coordinator advertises its heartbeat
// interval in the Welcome message, so workers and coordinator always agree
// on the cadence; the lease timeout is a fixed number of heartbeats.
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
	// the next requesting worker. It also paces the workers' retries: a
	// worker told to wait asks again one heartbeat later.
	Heartbeat time.Duration
	// Completed holds records from an earlier (killed) coordinator run's
	// checkpoint, by scenario index; they fold as replays instead of being
	// leased out again.
	Completed *RecordTable
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
//
// Coordinate is the shell around the lease table (coordinator): it owns
// the endpoint and one heartbeat ticker, hands the table each frame and
// tick with the time, and sends the frames the table queued.
func Coordinate(ctx context.Context, suite Suite, cfg CoordinatorConfig) (*Result, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("%w: coordinator needs a transport endpoint", ErrBadSuite)
	}
	c, err := newCoordinator(suite, cfg, time.Now())
	if err != nil {
		return nil, err
	}
	c.logf("coordinator: suite %s (%s): %d scenarios, %d already complete, lease size %d, heartbeat %s, lease timeout %s",
		c.suite.Name, c.fp, c.total, cfg.Completed.Len(), c.leaseSize, c.hb, c.timeout)
	if c.done() {
		// Everything was already in the checkpoint; nothing to serve.
		return c.fold.result(), nil
	}

	cfg.Telemetry.Gauge(MetricScenariosTotal).Set(float64(c.total))
	defer func() {
		if c.endRun != nil {
			c.endRun()
		}
	}()

	ticker := time.NewTicker(c.hb)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case msg, ok := <-cfg.Endpoint.Receive():
			if !ok {
				err = fmt.Errorf("fleet: coordinator endpoint closed")
			} else {
				err = c.receive(msg.From, msg.Payload, time.Now())
			}
		case now := <-ticker.C:
			c.tick(now)
		}
		if err != nil || c.done() {
			c.drain()
		}
		// Sends are best effort: a dead peer's lease expiry — not the send
		// path — is what guarantees progress.
		for _, o := range c.takeSends() {
			_ = cfg.Endpoint.Send(o.to, o.data)
		}
		if err != nil {
			return nil, err
		}
		if c.done() {
			c.logf("coordinator: all %d scenarios ingested; draining workers", c.total)
			return c.fold.result(), nil
		}
	}
}
