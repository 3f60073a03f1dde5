package fleet

import (
	"context"
	"errors"
	"fmt"
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
	// fleet.* metrics) — side-channel only, like everywhere else. The
	// session is one run: fleet.scenarios_total is the suite's, fleet.workers
	// the local pool, and it records one fleet.fit and one fleet.run, from
	// its first lease to its drain.
	Telemetry *telemetry.Collector
	// Chaos is the armed fault-injection plan (nil = off), threaded into
	// each lease's engine Config so non-emulation backends inject faults
	// too. The worker's wire endpoint is wrapped separately by the caller.
	Chaos *chaos.Plan
	// Logf, when set, receives operational one-liners (handshake, leases,
	// drain). It must not write to stdout.
	Logf func(format string, args ...any)
}

// ticksPerBeat is how many times per heartbeat interval the worker's shell
// ticks its session: heartbeats and retries go out at the first tick at or
// past their time, so they run late by at most a quarter heartbeat.
const ticksPerBeat = 4

// ConnectWorker joins a coordinator (Coordinate / tolerance-fleet -serve)
// as a remote fleet worker: it performs the Hello/Welcome handshake,
// receives the suite definition over the wire, then loops — lease a
// scenario range, execute it on the local engine with the usual
// deterministic per-index seeding, stream the records back in batches
// (resent until acknowledged), heartbeat while running — until the
// coordinator drains it. Returns nil after a drain that followed at least
// one lease; ErrDrained if the worker never got work.
//
// Cancelling ctx is the graceful exit: the in-flight lease's engine stops,
// and a best-effort Goodbye lets the coordinator re-lease the remainder
// immediately instead of waiting out the lease timeout. A worker killed
// without Goodbye loses nothing either — its lease simply expires.
//
// ConnectWorker is the shell around the session machine: it owns the
// endpoint, one ticker and the running lease's engine goroutine, hands the
// session each frame, tick and engine event with the time, and sends the
// frames the session queued.
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
	s := newSession(cfg.Coordinator, cfg.Logf, time.Now())
	runner := &leaseRunner{
		cfg:    Config{Workers: cfg.Workers, Cache: cfg.Cache, Telemetry: cfg.Telemetry, Chaos: cfg.Chaos}.withDefaults(),
		folded: cfg.Telemetry.Counter(MetricScenariosFolded),
	}
	ticker := time.NewTicker(DefaultHeartbeat / ticksPerBeat)
	defer ticker.Stop()
	// A failed send is a lost frame to the session; the last one's error
	// says why a session that gets no reply gave up.
	var sendErr error
	send := func() {
		for _, data := range s.takeSends() {
			sendErr = cfg.Endpoint.Send(cfg.Coordinator, data)
		}
	}

	// The running lease's engine hands each batch over batches and waits
	// on acked, and its end arrives on finished. Returning stops it.
	engineCtx, stopEngine := context.WithCancel(ctx)
	batches := make(chan shipment)
	acked := make(chan struct{}, 1)
	finished := make(chan error, 1)
	running, shipping := false, false
	defer func() {
		stopEngine()
		if running {
			<-finished
		}
	}()
	ship := func(seq int, frame []byte) error {
		select {
		case batches <- shipment{seq, frame}:
		case <-engineCtx.Done():
			return engineCtx.Err()
		}
		select {
		case <-acked:
			return nil
		case <-engineCtx.Done():
			return engineCtx.Err()
		}
	}

	for {
		send()
		switch {
		case s.phase == phaseOver:
			if errors.Is(s.err, errNoReply) && sendErr != nil {
				return fmt.Errorf("%w; last send: %v", s.err, sendErr)
			}
			return s.err
		case runner.plan == nil && s.total > 0:
			// Joined. The session is one run: one fit, and one fleet.run
			// from here to its end.
			runner.plan = newPlan(s.suite)
			cfg.Telemetry.Gauge(MetricScenariosTotal).Set(float64(s.total))
			cfg.Telemetry.Gauge(MetricWorkers).Set(float64(runner.cfg.Workers))
			ticker.Reset(s.hb / ticksPerBeat)
		}
		switch {
		case s.phase == phaseRun && !running:
			if s.leases == 1 {
				defer cfg.Telemetry.Phase("fleet.run")()
			}
			running = true
			go func(lease proto.Lease) { finished <- runner.run(engineCtx, lease, ship) }(s.lease)
		case s.phase == phaseRun && shipping:
			shipping = false
			acked <- struct{}{}
		}

		select {
		case <-ctx.Done():
		case msg, ok := <-cfg.Endpoint.Receive():
			if !ok {
				return fmt.Errorf("fleet: worker endpoint closed")
			}
			s.receive(msg.Payload, time.Now())
		case now := <-ticker.C:
			s.tick(now)
		case b := <-batches:
			shipping = true
			s.batch(b.seq, b.frame, time.Now())
		case err := <-finished:
			running = false
			if ctx.Err() == nil {
				if err != nil {
					return err
				}
				s.finished(time.Now())
			}
		}
		if err := ctx.Err(); err != nil {
			s.leave()
			send()
			return err
		}
	}
}

// shipment is one Records batch on its way from a lease's engine to the
// session.
type shipment struct {
	seq   int
	frame []byte
}

// leaseRunner executes a worker session's leases on the local engine.
type leaseRunner struct {
	plan *plan  // the suite's engine state, built at the session's first lease
	cfg  Config // every lease's engine configuration, with defaults
	// frame is the Records frame being filled; one buffer serves every
	// batch of the session, since ship returns only once the batch is
	// acked.
	frame []byte
	// indices is the running lease's schedule; one slice serves every
	// lease of the session, which runs one at a time.
	indices []int
	// folded counts fleet.scenarios_folded: records handed to a frame. A
	// worker folds nothing — the coordinator does.
	folded *telemetry.Counter
}

// run executes lease on the local engine — the first lease fits, later
// ones reuse the fit — and hands ship each Records batch of
// workerBatchRecords records, then the partial last one, numbered from
// zero. Each record's canonical bytes go straight into the open frame.
func (r *leaseRunner) run(ctx context.Context, lease proto.Lease, ship func(seq int, frame []byte) error) error {
	if err := r.plan.fit(r.cfg); err != nil {
		return err
	}
	r.indices = r.indices[:0]
	for i := lease.Start; i < lease.End; i++ {
		r.indices = append(r.indices, i)
	}
	batched, seq := 0, 0
	flush := func() error {
		if batched == 0 {
			return nil
		}
		r.frame = append(r.frame, recordsFrameTail...)
		err := ship(seq, r.frame)
		batched = 0
		seq++
		return err
	}
	err := r.plan.execute(ctx, r.indices, r.cfg, func(rec *RunRecord, _ bool) error {
		if batched == 0 {
			r.frame = appendRecordsFrameHead(r.frame[:0], lease.ID, seq)
		} else {
			r.frame = append(r.frame, ',')
		}
		var err error
		if r.frame, err = appendRecordJSON(r.frame, *rec); err != nil {
			return err
		}
		batched++
		r.folded.Inc(0)
		if batched >= workerBatchRecords {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
