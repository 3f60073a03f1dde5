package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"tolerance/internal/chaos"
	"tolerance/internal/telemetry"
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
