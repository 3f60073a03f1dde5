package fleet

import (
	"bytes"
	"context"
	"errors"
	"math"
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
// fails, and the first failure also delivers a drain notice, as from a
// coordinator that finished its run and exited while the worker dialed.
type refusingEndpoint struct {
	in      chan transport.Message
	sends   int
	drained time.Time // when the notice was delivered
}

func (e *refusingEndpoint) Addr() string                      { return "worker" }
func (e *refusingEndpoint) Receive() <-chan transport.Message { return e.in }
func (e *refusingEndpoint) Close() error                      { return nil }
func (e *refusingEndpoint) Send(string, []byte) error {
	if e.sends++; e.sends == 1 {
		e.in <- transport.Message{From: "coordinator", Payload: encode(proto.KindWait, proto.Wait{Drain: true})}
		e.drained = time.Now()
	}
	return errors.New("connection refused")
}

// TestDrainEndsAnyWait: a drain notice ends a worker session at once from
// every phase — while its Hello, lease request or Records batch awaits a
// reply, while it waits to ask again, while a lease runs — and the shell
// returns on it without waiting out a retry.
func TestDrainEndsAnyWait(t *testing.T) {
	drain := encode(proto.KindWait, proto.Wait{Drain: true})
	now := time.Unix(0, 0)
	for _, p := range []phase{phaseHello, phaseRequest, phaseWait, phaseRun, phaseShip} {
		s := newSession("coordinator", nil, now)
		if p != phaseHello {
			s.phase, s.total, s.hb, s.leases = p, 8, time.Second, 1
		}
		s.receive(drain, now)
		if s.phase != phaseOver || (s.err == ErrDrained) != (p == phaseHello) {
			t.Errorf("phase %d: a drain left phase %d with err %v", p, s.phase, s.err)
		}
		s.tick(now.Add(time.Hour))
		if sent := s.takeSends(); len(sent) > 1 {
			t.Errorf("phase %d: a drained session sent %q", p, sent[1:])
		}
	}

	ep := &refusingEndpoint{in: make(chan transport.Message, 1)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ConnectWorker(ctx, WorkerConfig{Endpoint: ep, Coordinator: "coordinator", Workers: 1})
	returned := time.Now()
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("ConnectWorker after %d sends: %v, want ErrDrained", ep.sends, err)
	}
	if lag := returned.Sub(ep.drained); lag > 250*time.Millisecond {
		t.Errorf("ConnectWorker returned %s after the drain notice, want within 250ms", lag)
	}
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
	r := &leaseRunner{plan: newPlan(suite), cfg: Config{Workers: 1, Cache: NewStrategyCache()}.withDefaults()}
	var shipped []RunRecord
	ship := func(seq int, frame []byte) error {
		_, _, recs, ok := decodeRecordsFrame(frame, shipped[:0])
		if !ok {
			t.Fatalf("batch %d is not a Records frame: %q", seq, frame)
		}
		shipped = recs
		return nil
	}
	// Cell 1 000's scenarios: the first lease solves its policy and fits
	// the suite's observation model; the second finds both cached.
	lease := proto.Lease{ID: 1, Start: 8000, End: 8008}
	if err := r.run(context.Background(), lease, ship); err != nil {
		t.Fatal(err)
	}
	want, err := recordsFrameOf(lease.ID, 0, shipped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.frame, want) {
		t.Errorf("the lease's frame is not proto.Encode's:\n got %s\nwant %s", r.frame, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lease.ID = 2
	if err := r.run(context.Background(), lease, ship); err != nil {
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

// TestWarmLeaseAllocationCount: on a warm worker session of the wide
// suite, a lease allocates a fixed number of objects however many
// scenarios it holds — an 8-scenario lease and a 64-scenario lease, each
// run once before, allocate within 2 of each other and at most 20 — since
// its runners, batch buffers, index slice and frame buffer come back from
// the session's earlier leases.
func TestWarmLeaseAllocationCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	r := &leaseRunner{plan: newPlan(benchWideSuite()), cfg: Config{Workers: 1, Cache: NewStrategyCache()}.withDefaults()}
	ship := func(int, []byte) error { return nil }
	run := func(l proto.Lease) {
		if err := r.run(context.Background(), l, ship); err != nil {
			t.Fatal(err)
		}
	}
	small := proto.Lease{ID: 1, Start: 8000, End: 8008}
	large := proto.Lease{ID: 2, Start: 8000, End: 8064}
	run(small)
	run(large)
	allocs := func(l proto.Lease) float64 { return testing.AllocsPerRun(5, func() { run(l) }) }
	a8, a64 := allocs(small), allocs(large)
	if a8 > 20 || a64 > 20 || math.Abs(a8-a64) > 2 {
		t.Errorf("a warm 8-scenario lease allocates %v times and a 64-scenario one %v; want equal within 2 and at most 20", a8, a64)
	} else {
		t.Logf("a warm 8-scenario lease allocates %v times, a 64-scenario one %v", a8, a64)
	}
}

// TestPooledRunnerForgetsEarlierCollector: a runner an instrumented
// execution gave back to its plan's pool, reused by an execution without
// telemetry, records nothing into the earlier execution's collector.
func TestPooledRunnerForgetsEarlierCollector(t *testing.T) {
	p := newPlan(testSuite())
	cfg := Config{Workers: 1, Cache: NewStrategyCache()}.withDefaults()
	if err := p.fit(cfg); err != nil {
		t.Fatal(err)
	}
	emit := func(*RunRecord, bool) error { return nil }
	col := telemetry.New()
	instrumented := cfg
	instrumented.Telemetry = col
	if err := p.execute(context.Background(), rangeInts(0, 4), instrumented, emit); err != nil {
		t.Fatal(err)
	}
	steps := func() int64 { return col.Snapshot().Histograms[MetricScenarioSteps].Count }
	if got := steps(); got != 4 {
		t.Fatalf("the instrumented execution observed %d scenarios' steps, want 4", got)
	}
	pooled := p.pool.runners
	if len(pooled) != 1 {
		t.Fatalf("the plan's pool holds %d runners after a one-worker execution, want 1", len(pooled))
	}
	runner := pooled[0]
	if err := p.execute(context.Background(), rangeInts(4, 12), cfg, emit); err != nil {
		t.Fatal(err)
	}
	if len(p.pool.runners) != 1 || p.pool.runners[0] != runner {
		t.Fatal("the uninstrumented execution did not reuse the pooled runner")
	}
	if got := steps(); got != 4 {
		t.Errorf("after an uninstrumented execution on the pooled runner the collector holds %d scenarios' steps, want 4", got)
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

// TestCoordinatorRateFromFirstGrant: a coordinator times its throughput
// from its first lease grant, so with a worker that arrives late, its
// fleet.run — first grant to return — must be shorter than Coordinate's
// wall time by about the late arrival.
func TestCoordinatorRateFromFirstGrant(t *testing.T) {
	const late = 300 * time.Millisecond
	suite := testSuite()
	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	coordCol := telemetry.New()
	werr := make(chan error, 1)
	go func() {
		time.Sleep(late)
		werr <- ConnectWorker(ctx, WorkerConfig{
			Endpoint: listenLoopback(t), Coordinator: coordEP.Addr(), Workers: 2,
		})
	}()
	start := time.Now()
	if _, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint: coordEP, LeaseScenarios: 4, Heartbeat: coordTestHeartbeat, Telemetry: coordCol,
	}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	var runs []float64
	for _, p := range coordCol.Snapshot().Phases {
		if p.Name == "fleet.run" {
			runs = append(runs, p.Seconds)
		}
	}
	if len(runs) != 1 || runs[0] <= 0 || wall-runs[0] < 0.8*late.Seconds() {
		t.Errorf("coordinator fleet.run %v s of a %.3f s Coordinate: want one phase at least %v shorter", runs, wall, 0.8*late.Seconds())
	}
}
