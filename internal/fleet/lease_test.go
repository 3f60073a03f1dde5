package fleet

import (
	"testing"

	"tolerance/internal/fleet/proto"
)

// TestLeaseScheduleByteIdentical is the lease protocol's contract on the
// harness: under seeded drops, duplicates, reorders and tick skew, with a
// worker killed without a Goodbye and replaced, one leaving mid-lease and
// two joining late, every run folds each scenario once and in order,
// every worker ends drained, and the Result is the single-process run's,
// byte for byte. Each seed replays to the same trace.
func TestLeaseScheduleByteIdentical(t *testing.T) {
	fx := sharedLeaseFixture(t)
	eachLeaseSeed(t, func(t *testing.T, seed int64) {
		n := runLeaseSchedule(t, fx, seed, chaotic)
		if n.kills > 0 || n.goodbyes > 0 || n.late > 0 {
			n.fatalf("schedule left %d kills, %d goodbyes and %d late joins undone", n.kills, n.goodbyes, n.late)
		}
	})
}

// TestLeaseResumedCoordinator: a coordinator resumed from a checkpoint
// holding half the suite (a prefix and a scattering after it) leases only
// the rest, under the same faults, and its Result is still the
// single-process run's; OnRecord sees exactly the missing indices.
func TestLeaseResumedCoordinator(t *testing.T) {
	fx := sharedLeaseFixture(t)
	_, all := collectRecords(t, fx.suite, Shard{}, nil)
	completed := make(map[int]RunRecord)
	for _, rec := range all {
		if rec.Index%4 < 2 {
			completed[rec.Index] = rec
		}
	}
	sched := chaotic
	sched.completed = tableOf(completed)
	eachLeaseSeed(t, func(t *testing.T, seed int64) {
		n := runLeaseSchedule(t, fx, seed, sched)
		if got := n.col.Snapshot().Counter(MetricScenariosReplayed); got != int64(len(completed)) {
			n.fatalf("fleet.scenarios_replayed = %d, want %d", got, len(completed))
		}
	})
}

// TestLeaseExpiriesReplayInIDOrder: when two leases expire in one tick,
// their ranges go back to the queue in lease-ID order and the drain goes
// out in address order, so a schedule with simultaneous expiries replays
// to one trace every time.
func TestLeaseExpiriesReplayInIDOrder(t *testing.T) {
	fx := sharedLeaseFixture(t)
	sched := leaseSchedule{workers: 3, leaseSize: 3, batch: 1, kills: 2, killTogether: true}
	for seed := int64(1); seed <= leaseSeeds; seed++ {
		first := newLeaseNet(t, fx, seed, sched)
		first.run()
		if first.jointExpiries == 0 {
			continue
		}
		first.check(fx.want)
		for range 20 {
			again := newLeaseNet(t, fx, seed, sched)
			again.run()
			if again.trace != first.trace {
				t.Fatalf("seed %d: a replay of two simultaneous expiries took another schedule", seed)
			}
		}
		return
	}
	t.Fatalf("no seed of %d expired two leases in one tick", leaseSeeds)
}

// TestCoordinateWorkerKillReLease is the fault-tolerance contract: a worker
// that dies mid-range without a Goodbye must have its lease expire after
// the timeout and the missing scenarios re-leased to a surviving worker,
// with the final result still byte-identical. On a network that neither
// drops nor duplicates, the prefix the dead worker shipped is kept and
// only the rest re-leased, so no scenario runs twice.
func TestCoordinateWorkerKillReLease(t *testing.T) {
	fx := sharedLeaseFixture(t)
	sched := leaseSchedule{workers: 2, leaseSize: 6, batch: 1, kills: 1}
	eachLeaseSeed(t, func(t *testing.T, seed int64) {
		n := runLeaseSchedule(t, fx, seed, sched)
		s := n.col.Snapshot()
		if n.kills != 0 {
			n.fatalf("no worker was killed mid-lease")
		}
		if s.Counter(MetricCoordLeasesExpired) < 1 {
			n.fatalf("coord.leases_expired = %d, want >= 1 (the victim's lease must expire)",
				s.Counter(MetricCoordLeasesExpired))
		}
		if folded := s.Counter(MetricScenariosFolded); folded != int64(n.coord.total) {
			n.fatalf("fleet.scenarios_folded = %d, want %d", folded, n.coord.total)
		}
		if got := s.Counter(MetricCoordRecordsReplayed); got != 0 {
			n.fatalf("coord.records_replayed = %d, want 0 (the dead worker's prefix re-ran)", got)
		}
	})
}

// TestLeaseExpiryStormReconciles soaks the re-lease machinery: each of
// three workers goes dark — heartbeats and records both — for twice the
// lease timeout, from its (i+1)-th Records frame on, so its lease expires
// and the span is re-leased while it keeps computing and later reships.
// The coordinator must dedupe every replay, ingest each scenario exactly
// once, and still match the fault-free run byte for byte.
func TestLeaseExpiryStormReconciles(t *testing.T) {
	fx := sharedLeaseFixture(t)
	sched := leaseSchedule{workers: 3, leaseSize: 2, batch: 1, mute: 2 * leaseTimeoutBeats * harnessHeartbeat}
	eachLeaseSeed(t, func(t *testing.T, seed int64) {
		n := runLeaseSchedule(t, fx, seed, sched)
		if n.trips == 0 || n.muted == 0 {
			n.fatalf("the storm muted %d frames in %d bursts; it exercised nothing", n.muted, n.trips)
		}
		s := n.col.Snapshot()
		// Every burst silenced a worker holding a lease for longer than the
		// lease timeout, so each one shows up as an expiry.
		if got := s.Counter(MetricCoordLeasesExpired); got < int64(n.trips) {
			n.fatalf("coord.leases_expired = %d, want >= %d (one per burst)", got, n.trips)
		}
		total := int64(n.coord.total)
		if got := s.Counter(MetricCoordRecordsReceived); got != total {
			n.fatalf("coord.records_received = %d, want %d", got, total)
		}
		if got := s.Counter(MetricScenariosFolded); got != total {
			n.fatalf("fleet.scenarios_folded = %d, want %d", got, total)
		}
	})
}

// TestConnectWorkerDropsMalformedLease: a lease outside the suite is
// handled like any malformed frame — dropped, and the worker asks again —
// so the worker finishes the run instead of running or failing on it.
func TestConnectWorkerDropsMalformedLease(t *testing.T) {
	fx := sharedLeaseFixture(t)
	total := fx.suite.NumScenarios()
	sched := leaseSchedule{workers: 2, leaseSize: 4, batch: 2, bogus: []proto.Lease{
		{ID: 1 << 40, Start: total, End: total + 3},
		{ID: 1<<40 + 1, Start: -2, End: 1},
	}}
	eachLeaseSeed(t, func(t *testing.T, seed int64) {
		runLeaseSchedule(t, fx, seed, sched)
	})
}

// TestCoordinatorDegradedModeRecovers checks graceful degradation: a
// coordinator whose every worker is gone (here: none arrived for two
// lease timeouts) parks and raises the coord.degraded gauge, and resumes
// transparently — gauge back to zero, result intact — once workers join.
func TestCoordinatorDegradedModeRecovers(t *testing.T) {
	fx := sharedLeaseFixture(t)
	sched := chaotic
	sched.joinAfter = 2 * leaseTimeoutBeats * harnessHeartbeat
	eachLeaseSeed(t, func(t *testing.T, seed int64) {
		n := runLeaseSchedule(t, fx, seed, sched)
		if !n.degraded {
			n.fatalf("coord.degraded never rose while the coordinator sat workerless")
		}
		if g := n.col.Snapshot().Gauges[MetricCoordDegraded]; g != 0 {
			n.fatalf("coord.degraded = %v after recovery, want 0", g)
		}
	})
}
