package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tolerance/internal/chaos"
	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// TestCoordinateUnderChaosIsByteIdentical is the PR's acceptance bar: a
// coordinator and two workers whose endpoints all run through a seeded
// drop/duplicate/delay/reorder/partition plan must still produce a result
// byte-identical to a fault-free single-machine run. The protocol absorbs
// every injected fault — resend-until-ack, first-write-wins dedupe, lease
// expiry — so chaos costs time, never correctness.
func TestCoordinateUnderChaosIsByteIdentical(t *testing.T) {
	suite := testSuite()
	want := referenceRun(t, suite)

	plan, err := chaos.NewPlanByName("lossy-partition", 7)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	plan.Instrument(col)

	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Workers get their own context as a drain backstop: chaos can drop the
	// drain notice itself, and with the coordinator gone nobody would ever
	// resend it.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = ConnectWorker(wctx, WorkerConfig{
				Endpoint:    plan.WrapEndpoint(listenLoopback(t)),
				Coordinator: coordEP.Addr(),
				Workers:     2,
			})
		}(i)
	}

	res, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint:       plan.WrapEndpoint(coordEP),
		LeaseScenarios: 3,
		Heartbeat:      coordTestHeartbeat,
		Telemetry:      col,
	})
	if err != nil {
		t.Fatalf("Coordinate under chaos: %v", err)
	}
	wcancel()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, ErrDrained) && !errors.Is(werr, context.Canceled) {
			t.Errorf("worker %d: %v", i, werr)
		}
	}

	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("chaos run differs from fault-free single-machine run:\n%s\n%s", got, want)
	}

	// The chaos plane must have actually fired, and its frame counters must
	// obey the reconciliation identity even after a full concurrent run.
	s := col.Snapshot()
	frames := s.Counter(chaos.MetricFrames)
	if frames == 0 {
		t.Fatal("chaos.frames = 0; the plan never saw the wire")
	}
	terminal := s.Counter(chaos.MetricFramesPassed) + s.Counter(chaos.MetricFramesDropped) +
		s.Counter(chaos.MetricFramesDelayed) + s.Counter(chaos.MetricFramesReorder) +
		s.Counter(chaos.MetricFramesPart) + s.Counter(chaos.MetricFramesStalled) +
		s.Counter(chaos.MetricResets)
	if frames != terminal {
		t.Errorf("reconciliation identity broken: chaos.frames = %d, terminal buckets sum to %d", frames, terminal)
	}
	if faults := frames - s.Counter(chaos.MetricFramesPassed); faults == 0 {
		t.Error("chaos injected no faults at all; the profile is not exercising the protocol")
	}
	if g := s.Gauges[chaos.MetricPlanDigest]; g != float64(plan.Digest32()) {
		t.Errorf("chaos.plan_digest gauge = %v, want %v", g, float64(plan.Digest32()))
	}
}

// recordsMuteEndpoint silences a worker's outbound frames — heartbeats,
// records, everything — for one burst that starts at its trigger-th
// Records frame. Keying the burst to a Records frame (not wall clock)
// guarantees the silence lands while a lease is outstanding: Records only
// flow under a lease, and the triggering frame itself is swallowed, so the
// ack cannot arrive and close the lease before the storm hits. The receive
// side stays open — the worker keeps hearing the coordinator while the
// coordinator hears nothing back.
type recordsMuteEndpoint struct {
	transport.Endpoint
	trigger int64         // mute begins at this Records frame (1-based)
	mute    time.Duration // burst length; must outlast the lease timeout

	seen    atomic.Int64
	until   atomic.Int64 // unix-nano end of the burst (0 = not tripped yet)
	dropped atomic.Int64
}

func (e *recordsMuteEndpoint) Send(to string, payload []byte) error {
	if until := e.until.Load(); until != 0 && time.Now().UnixNano() < until {
		e.dropped.Add(1)
		return nil
	}
	if k, _, err := proto.Decode(payload); err == nil && k == proto.KindRecords && e.until.Load() == 0 {
		if e.seen.Add(1) == e.trigger {
			e.until.Store(time.Now().Add(e.mute).UnixNano())
			e.dropped.Add(1)
			return nil // the triggering frame is the burst's first casualty
		}
	}
	return e.Endpoint.Send(to, payload)
}

func (e *recordsMuteEndpoint) tripped() bool { return e.until.Load() != 0 }

// TestLeaseExpiryStormReconciles soaks the re-lease machinery: each of
// three workers goes dark — heartbeats and records both — for a burst
// longer than the lease timeout, triggered mid-lease, so their leases
// expire and the spans get re-leased while the muted workers keep
// computing and later reship. The coordinator must dedupe every replay,
// ingest each scenario exactly once, and still match the fault-free run
// byte for byte.
func TestLeaseExpiryStormReconciles(t *testing.T) {
	suite := testSuite()
	want := referenceRun(t, suite)
	total := int64(suite.NumScenarios())

	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	col := telemetry.New()

	var wg sync.WaitGroup
	const numWorkers = 3
	mutes := make([]*recordsMuteEndpoint, numWorkers)
	workerErrs := make([]error, numWorkers)
	for i := range workerErrs {
		mutes[i] = &recordsMuteEndpoint{
			Endpoint: listenLoopback(t),
			trigger:  int64(i + 1), // staggered: the bursts roll, not sync
			mute:     500 * time.Millisecond,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = ConnectWorker(wctx, WorkerConfig{
				Endpoint:         mutes[i],
				Coordinator:      coordEP.Addr(),
				Workers:          1,
				testBatchRecords: 1, // ship per record: more wire traffic into the storm
			})
		}(i)
	}

	res, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint:       coordEP,
		LeaseScenarios: 2,
		Heartbeat:      coordTestHeartbeat,
		Telemetry:      col,
	})
	if err != nil {
		t.Fatalf("Coordinate through the storm: %v", err)
	}
	wcancel()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, ErrDrained) && !errors.Is(werr, context.Canceled) {
			t.Errorf("worker %d: %v", i, werr)
		}
	}

	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("storm result differs from fault-free single-machine run:\n%s\n%s", got, want)
	}

	var muted, trips int64
	for _, m := range mutes {
		muted += m.dropped.Load()
		if m.tripped() {
			trips++
		}
	}
	if trips == 0 {
		t.Fatal("no worker's burst ever tripped; the storm exercised nothing")
	}
	s := col.Snapshot()
	if muted == 0 {
		t.Fatal("the storm muted no frames; the test exercised nothing")
	}
	// Every tripped burst silenced a worker holding a lease for longer than
	// the lease timeout, so each one must show up as an expiry.
	if s.Counter(MetricCoordLeasesExpired) < trips {
		t.Errorf("coord.leases_expired = %d, want >= %d (one per tripped silence burst)",
			s.Counter(MetricCoordLeasesExpired), trips)
	}
	// Exactly one fresh ingest per scenario, however many replays the
	// expiry/reship churn produced on top.
	if s.Counter(MetricCoordRecordsReceived) != total {
		t.Errorf("coord.records_received = %d, want %d", s.Counter(MetricCoordRecordsReceived), total)
	}
	if s.Counter(MetricScenariosFolded) != total {
		t.Errorf("fleet.scenarios_folded = %d, want %d", s.Counter(MetricScenariosFolded), total)
	}
}

// TestCoordinatorDegradedModeRecovers checks graceful degradation: a
// coordinator whose every worker is gone (here: none ever arrived) must
// park, raise the coord.degraded gauge, and resume transparently — gauge
// back to zero, result intact — the moment a worker appears.
func TestCoordinatorDegradedModeRecovers(t *testing.T) {
	suite := testSuite()
	want := referenceRun(t, suite)

	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	col := telemetry.New()

	type coordResult struct {
		res *Result
		err error
	}
	coordDone := make(chan coordResult, 1)
	go func() {
		res, err := Coordinate(ctx, suite, CoordinatorConfig{
			Endpoint:       coordEP,
			LeaseScenarios: 4,
			Heartbeat:      coordTestHeartbeat,
			Telemetry:      col,
		})
		coordDone <- coordResult{res, err}
	}()

	// With no worker in sight the degraded gauge must rise once the grace
	// period (one lease timeout) passes.
	deadline := time.Now().Add(5 * time.Second)
	for col.Snapshot().Gauges[MetricCoordDegraded] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("coord.degraded never rose while the coordinator sat workerless")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A worker arrives; the coordinator must recover and finish the run.
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- ConnectWorker(ctx, WorkerConfig{
			Endpoint:    listenLoopback(t),
			Coordinator: coordEP.Addr(),
			Workers:     2,
		})
	}()

	cres := <-coordDone
	if cres.err != nil {
		t.Fatalf("Coordinate: %v", cres.err)
	}
	if werr := <-workerDone; werr != nil && !errors.Is(werr, ErrDrained) {
		t.Errorf("worker: %v", werr)
	}

	got, err := json.Marshal(cres.res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("post-degradation result differs from single-machine run:\n%s\n%s", got, want)
	}
	if g := col.Snapshot().Gauges[MetricCoordDegraded]; g != 0 {
		t.Errorf("coord.degraded = %v after recovery, want 0", g)
	}
}
