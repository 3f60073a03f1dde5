package fleet

import (
	"tolerance/internal/telemetry"
)

// Fleet metric names. Counters are recorded from the worker pool (scenario
// starts, batch claims, busy time) or from the single goroutine that owns
// the ordered fold (folds, replays, merges); histograms observe each
// executed scenario's wall-clock and step count.
const (
	// MetricScenariosStarted counts scenario executions begun by workers.
	MetricScenariosStarted = "fleet.scenarios_started"
	// MetricScenariosFolded counts scenarios folded at the ordered frontier —
	// the reconciliation anchor: at the end of a successful run it equals the
	// scheduled total.
	MetricScenariosFolded = "fleet.scenarios_folded"
	// MetricScenariosReplayed counts folds served from checkpoint records
	// instead of fresh execution (resume runs).
	MetricScenariosReplayed = "fleet.scenarios_replayed"
	// MetricBatchesClaimed counts work batches claimed by workers.
	MetricBatchesClaimed = "fleet.batches_claimed"
	// MetricFoldMerges counts per-cell partial merges performed by the
	// ordered fold (a local run's aggregator or the coordinator's ingest) —
	// one per (span, cell) run of positions. The count is a pure function of
	// the schedule (fixed foldSpan-wide spans), so it is identical across
	// worker counts; a drift between runs of the same suite and shard
	// indicates a scheduling bug.
	MetricFoldMerges = "fleet.fold_merges"
	// MetricWorkerBusyNS accumulates nanoseconds workers spent executing
	// scenarios; busy/(workers×wall) is the pool utilization.
	MetricWorkerBusyNS = "fleet.worker_busy_ns"
	// MetricCheckpointSyncs counts checkpoint fsyncs (flushes without one
	// are not counted).
	MetricCheckpointSyncs = "fleet.checkpoint_syncs"
	// MetricScenarioDurationNS is the per-scenario wall-clock histogram.
	MetricScenarioDurationNS = "fleet.scenario_duration_ns"
	// MetricScenarioSteps is the per-scenario simulated-step histogram.
	MetricScenarioSteps = "fleet.scenario_steps"
	// MetricScenariosTotal (gauge) is the scheduled scenario count.
	MetricScenariosTotal = "fleet.scenarios_total"
	// MetricWorkers (gauge) is the worker-pool size of the run.
	MetricWorkers = "fleet.workers"
)

// Coordinator metric names (Coordinate; see docs/OPERATIONS.md for how to
// read them during an incident). All are recorded from the coordinator's
// single event-loop goroutine. The fleet.scenarios_folded/replayed and
// fleet.fold_merges counters above are shared: the coordinator's ordered
// ingest runs the same fold as a local run's aggregator, so the post-run
// summary and the manifest reconcile the same way on both paths.
const (
	// MetricCoordWorkers (gauge) is the number of currently connected
	// workers.
	MetricCoordWorkers = "coord.workers_connected"
	// MetricCoordLeasesGranted counts leases handed to workers, including
	// re-leases of expired ranges.
	MetricCoordLeasesGranted = "coord.leases_granted"
	// MetricCoordLeasesExpired counts leases revoked after missed
	// heartbeats — the fault-tolerance path firing.
	MetricCoordLeasesExpired = "coord.leases_expired"
	// MetricCoordLeasesOutstanding (gauge) is the number of live leases.
	MetricCoordLeasesOutstanding = "coord.leases_outstanding"
	// MetricCoordRecordsReceived counts fresh records ingested off the
	// wire (first write for their index).
	MetricCoordRecordsReceived = "coord.records_received"
	// MetricCoordRecordsReplayed counts duplicate records dropped by the
	// first-write-wins dedupe (retransmits, re-leased overlap).
	MetricCoordRecordsReplayed = "coord.records_replayed"
	// MetricCoordRecordsRejected counts undecodable or out-of-suite
	// messages dropped by validation.
	MetricCoordRecordsRejected = "coord.records_rejected"
	// MetricCoordHeartbeats counts worker keep-alives.
	MetricCoordHeartbeats = "coord.heartbeats"
	// MetricCoordDegraded (gauge) is 1 while the coordinator has unleased
	// work but zero reachable workers — every worker partitioned away,
	// crashed, or never arrived. It parks and waits instead of spinning;
	// the gauge (and a single log line per episode) is the operator's cue.
	MetricCoordDegraded = "coord.degraded"
	// MetricCoordScenariosPending (gauge) is the number of scenario
	// indices still lacking a record.
	MetricCoordScenariosPending = "coord.scenarios_pending"
	// MetricFramesQuarantined counts malformed or oversized wire frames the
	// TCP endpoint discarded while keeping the connection alive (see
	// transport.TCPEndpoint.QuarantinedFrames). Nonzero under chaos is
	// expected; nonzero without chaos means a misbehaving peer.
	MetricFramesQuarantined = "transport.frames_quarantined"
	// MetricFramesDropped counts well-formed wire frames the TCP endpoint
	// discarded because its inbox was full (see
	// transport.TCPEndpoint.DroppedFrames). The protocol retries, so the
	// run still completes; nonzero means this process fell behind its peers.
	MetricFramesDropped = "transport.frames_dropped"
)

// stepBuckets covers the suite step-count range (smoke suites run tens of
// steps, the paper grid a thousand, stress configurations more).
var stepBuckets = []int64{50, 100, 200, 500, 1000, 2000, 5000, 10000}

// fleetMetrics bundles the engine's per-run metric handles.
type fleetMetrics struct {
	started *telemetry.Counter
	batches *telemetry.Counter
	busyNS  *telemetry.Counter
	durNS   *telemetry.Histogram
	steps   *telemetry.Histogram
}

// newFleetMetrics registers the engine metrics.
func newFleetMetrics(col *telemetry.Collector) fleetMetrics {
	return fleetMetrics{
		started: col.Counter(MetricScenariosStarted),
		batches: col.Counter(MetricBatchesClaimed),
		busyNS:  col.Counter(MetricWorkerBusyNS),
		durNS:   col.Histogram(MetricScenarioDurationNS, telemetry.DurationBuckets()),
		steps:   col.Histogram(MetricScenarioSteps, stepBuckets),
	}
}
