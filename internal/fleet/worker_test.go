package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// joinGate holds a coordinator's inbound lease requests until n workers
// have said Hello, so every worker has joined before the first lease is
// granted.
type joinGate struct {
	transport.Endpoint
	in chan transport.Message
}

// newJoinGate forwards ep's frames until ep closes or ctx ends.
func newJoinGate(ctx context.Context, ep transport.Endpoint, n int) *joinGate {
	g := &joinGate{Endpoint: ep, in: make(chan transport.Message)}
	go func() {
		joined := make(map[string]bool)
		var held []transport.Message
		for msg := range ep.Receive() {
			kind, _, _ := proto.Decode(msg.Payload)
			if kind == proto.KindHello {
				joined[msg.From] = true
			}
			if len(joined) < n && kind == proto.KindLeaseRequest {
				held = append(held, msg)
				continue
			}
			for _, m := range append(held, msg) {
				select {
				case g.in <- m:
				case <-ctx.Done():
					return
				}
			}
			held = nil
		}
	}()
	return g
}

func (g *joinGate) Receive() <-chan transport.Message { return g.in }

// TestConnectWorkerExitsOnDrain: a worker parked in its lease-wait backoff
// when the run completes leaves on the coordinator's drain notice, not when
// its timer fires. One lease covers the suite, so the second worker is told
// to wait — at least one 1 s heartbeat — while the first runs it; both
// must return within 250 ms of Coordinate.
func TestConnectWorkerExitsOnDrain(t *testing.T) {
	suite := testSuite()
	ep := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	returned := make(chan time.Time, 2)
	for i := 0; i < 2; i++ {
		go func() {
			err := ConnectWorker(ctx, WorkerConfig{
				Endpoint:    listenLoopback(t),
				Coordinator: ep.Addr(),
				Workers:     1,
			})
			if err != nil && !errors.Is(err, ErrDrained) {
				t.Errorf("worker: %v", err)
			}
			returned <- time.Now()
		}()
	}
	_, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint:       newJoinGate(ctx, ep, 2),
		LeaseScenarios: suite.NumScenarios(),
		Heartbeat:      time.Second,
	})
	done := time.Now()
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case at := <-returned:
			if lag := at.Sub(done); lag > 250*time.Millisecond {
				t.Errorf("a worker returned %s after Coordinate, want within 250ms", lag)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a worker was still running 10 s after Coordinate returned")
		}
	}
}

// refusingEndpoint is a coordinator the worker never reaches: every Send
// fails, and the drainAt-th failure also delivers a drain notice, as from a
// coordinator that finished its run and exited while the worker dialed.
type refusingEndpoint struct {
	in      chan transport.Message
	drainAt int
	sends   int
	drained time.Time // when the notice was delivered
}

func (e *refusingEndpoint) Addr() string                      { return "worker" }
func (e *refusingEndpoint) Receive() <-chan transport.Message { return e.in }
func (e *refusingEndpoint) Close() error                      { return nil }
func (e *refusingEndpoint) Send(string, []byte) error {
	e.sends++
	if e.sends == e.drainAt {
		drain, err := proto.Encode(proto.KindWait, proto.Wait{Drain: true})
		if err != nil {
			return err
		}
		e.in <- transport.Message{From: "coordinator", Payload: drain}
		e.drained = time.Now()
	}
	return errors.New("connection refused")
}

// TestDrainEndsSendBackoff: a worker backing off after a failed send still
// reads its endpoint, so a drain notice ends the session at once, not when
// the backoff (by the 6th failure, 0.5–1 s) runs out.
func TestDrainEndsSendBackoff(t *testing.T) {
	ep := &refusingEndpoint{in: make(chan transport.Message, 1), drainAt: 6}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ConnectWorker(ctx, WorkerConfig{Endpoint: ep, Coordinator: "coordinator", Workers: 1})
	returned := time.Now()
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("ConnectWorker after %d sends: %v, want ErrDrained", ep.sends, err)
	}
	if ep.drained.IsZero() {
		t.Fatalf("ConnectWorker drained after %d sends, before the notice was delivered", ep.sends)
	}
	if lag := returned.Sub(ep.drained); lag > 250*time.Millisecond {
		t.Errorf("ConnectWorker returned %s after the drain notice, want within 250ms", lag)
	}
}

// ackEndpoint is a coordinator with no network behind it: every Records
// frame sent to it is acknowledged at once, everything else is dropped. Its
// inbox holds the one ack a call waits for.
type ackEndpoint struct {
	in   chan transport.Message
	recs []RunRecord
}

func (e *ackEndpoint) Addr() string                      { return "worker" }
func (e *ackEndpoint) Receive() <-chan transport.Message { return e.in }
func (e *ackEndpoint) Close() error                      { return nil }
func (e *ackEndpoint) Send(_ string, payload []byte) error {
	leaseID, seq, recs, ok := decodeRecordsFrame(payload, e.recs[:0])
	e.recs = recs
	if !ok {
		return nil
	}
	ack, err := proto.Encode(proto.KindRecordsAck, proto.RecordsAck{LeaseID: leaseID, Seq: seq})
	if err != nil {
		return err
	}
	e.in <- transport.Message{From: "coordinator", Payload: ack}
	return nil
}

// benchWideSuite is go run ./bench's wide suite at full scale: 3 072 cells
// of 8 short scenarios each.
func benchWideSuite() Suite {
	return Suite{
		Name:          "bench-wide",
		Seed:          1,
		SeedsPerCell:  8,
		Steps:         40,
		FitSamples:    25000,
		AttackRates:   []float64{0.05, 0.08, 0.1, 0.15, 0.2, 0.3},
		CrashProfiles: []CrashProfile{{PC1: 1e-5, PC2: 1e-3}, {PC1: 5e-3, PC2: 2e-2}},
		N1s:           []int{3, 4, 5, 6, 7, 8, 9, 10},
		DeltaRs:       []int{5, 10, 15, 20, 25, 30, 40, 50},
		Policies: []PolicyKind{
			PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
		},
	}
}

// TestLeaseAllocatesForItsOwnScenarios: on the benchmark's 3 072-cell wide
// suite, a warm worker session's 8-scenario lease allocates for its own
// scenarios only: no cell expansion, suite hash, per-cell template state or
// whole-grid Result per lease, which on this suite come to about 3.6 MB.
// The lease's frame is also proto.Encode's.
func TestLeaseAllocatesForItsOwnScenarios(t *testing.T) {
	suite := benchWideSuite()
	if got := len(suite.Cells()); got != 3072 {
		t.Fatalf("wide suite has %d cells, want 3072", got)
	}
	ep := &ackEndpoint{in: make(chan transport.Message, 1)}
	s := &workerSession{
		cfg: WorkerConfig{Endpoint: ep, Coordinator: "coordinator", Workers: 1, Cache: NewStrategyCache(),
			testBatchRecords: workerBatchRecords},
		plan:   newPlan(suite),
		total:  suite.NumScenarios(),
		hb:     time.Second,
		sendBO: newBackoff(time.Millisecond, time.Second, "test"),
	}
	// Cell 1 000's scenarios: the first lease solves its policy and fits
	// the suite's observation model; the second finds both cached.
	lease := proto.Lease{ID: 1, Start: 8000, End: 8008}
	if err := s.runLease(context.Background(), lease); err != nil {
		t.Fatal(err)
	}
	want, err := recordsFrameOf(lease.ID, 0, ep.recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.records, want) {
		t.Errorf("the lease's frame is not proto.Encode's:\n got %s\nwant %s", s.records, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lease.ID = 2
	if err := s.runLease(context.Background(), lease); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 64 << 10
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Errorf("an 8-scenario lease allocated %d bytes on a warm session, want at most %d", n, bound)
	} else {
		t.Logf("an 8-scenario lease allocated %d bytes on a warm session", n)
	}
}

// TestWorkerSessionIsOneRun: a worker session over several leases is one
// run on its collector. It fits once and records one fleet.run phase, its
// gauges describe the session rather than its last lease, and the
// records it folded equal the suite's scenarios.
func TestWorkerSessionIsOneRun(t *testing.T) {
	suite := testSuite()
	total := suite.NumScenarios()
	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	col, coordCol := telemetry.New(), telemetry.New()
	werr := make(chan error, 1)
	go func() {
		werr <- ConnectWorker(ctx, WorkerConfig{
			Endpoint: listenLoopback(t), Coordinator: coordEP.Addr(), Workers: 2, Telemetry: col,
		})
	}()
	if _, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint: coordEP, LeaseScenarios: 4, Heartbeat: coordTestHeartbeat, Telemetry: coordCol,
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	if n := coordCol.Snapshot().Counter(MetricCoordLeasesGranted); n < 3 {
		t.Fatalf("the session ran %d leases, want at least 3", n)
	}
	snap := col.Snapshot()
	phases := map[string]int{}
	for _, p := range snap.Phases {
		phases[p.Name]++
	}
	if phases["fleet.run"] != 1 || phases["fleet.fit"] != 1 {
		t.Errorf("worker phases %v, want one fleet.fit and one fleet.run", snap.Phases)
	}
	if got := snap.Counter(MetricScenariosFolded); got != int64(total) {
		t.Errorf("worker folded %d records, want %d", got, total)
	}
	if got := snap.Gauges[MetricScenariosTotal]; got != float64(total) {
		t.Errorf("worker %s = %v, want the suite's %d", MetricScenariosTotal, got, total)
	}
	if got := snap.Gauges[MetricWorkers]; got != 2 {
		t.Errorf("worker %s = %v, want its pool of 2", MetricWorkers, got)
	}
}
