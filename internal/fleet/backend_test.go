package fleet

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"tolerance/internal/emulation"
	"tolerance/internal/telemetry"
)

// fakeBackend is a registry test double: it never touches an emulator or a
// cluster, it just returns metrics derived from the scenario seed so engine
// dispatch is observable in the folded aggregates.
type fakeBackend struct{}

func (fakeBackend) Name() string { return "test-fake" }

func (fakeBackend) Run(ctx context.Context, sc emulation.Scenario, opts BackendOptions) (emulation.Metrics, error) {
	if err := ctx.Err(); err != nil {
		return emulation.Metrics{}, err
	}
	return emulation.Metrics{
		Availability:     0.25,
		ServiceLatencyMS: 7,
	}, nil
}

// TestBackendRegistry: the registry holds the cluster backend; the
// emulation is not in it (the engine never dispatches it), yet both are
// valid backend names.
func TestBackendRegistry(t *testing.T) {
	b, ok := LookupBackend(BackendCluster)
	if !ok {
		t.Fatalf("built-in backend %q not registered", BackendCluster)
	}
	if b.Name() != BackendCluster {
		t.Errorf("backend %q reports name %q", BackendCluster, b.Name())
	}
	if _, ok := LookupBackend(BackendEmulation); ok {
		t.Errorf("backend %q is registered, but the engine never dispatches it", BackendEmulation)
	}
	names := strings.Join(BackendNames(), " ")
	for _, name := range []string{BackendCluster, BackendEmulation} {
		if !strings.Contains(" "+names+" ", " "+name+" ") {
			t.Errorf("BackendNames() = %q lacks %q", names, name)
		}
	}
	if _, ok := LookupBackend("no-such-backend"); ok {
		t.Error("unknown backend resolved")
	}
}

// TestBackendAxisExpansion pins the grid contract: the backend axis is
// outermost, "emulation" normalizes to the canonical empty Backend, and a
// suite without the axis expands exactly as before the axis existed.
func TestBackendAxisExpansion(t *testing.T) {
	base := Suite{Name: "x", AttackRates: []float64{0.1}, N1s: []int{3},
		Policies: []PolicyKind{PolicyTolerance, PolicyPeriodic}}

	plain := base.Cells()
	explicit := base
	explicit.Backends = []string{BackendEmulation}
	for i, c := range explicit.Cells() {
		if c != plain[i] {
			t.Fatalf("explicit emulation cell %d differs from default: %+v vs %+v", i, c, plain[i])
		}
	}

	multi := base
	multi.Backends = []string{BackendEmulation, BackendCluster}
	cells := multi.Cells()
	if got, want := len(cells), 2*len(plain); got != want {
		t.Fatalf("multi-backend grid has %d cells, want %d", got, want)
	}
	if got, want := multi.NumCells(), len(cells); got != want {
		t.Fatalf("NumCells %d != len(Cells) %d", got, want)
	}
	for i, c := range cells {
		wantBackend := ""
		if i >= len(plain) {
			wantBackend = BackendCluster
		}
		if c.Backend != wantBackend {
			t.Errorf("cell %d backend %q, want %q", i, c.Backend, wantBackend)
		}
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
	}
}

func TestSuiteValidateBackends(t *testing.T) {
	for _, backends := range [][]string{{BackendCluster}, {BackendEmulation}, {BackendEmulation, BackendCluster}} {
		ok := Suite{Name: "x", Backends: backends}
		if err := ok.Validate(); err != nil {
			t.Fatalf("backends %q rejected: %v", backends, err)
		}
	}
	bad := Suite{Name: "x", Backends: []string{"warp-drive"}}
	err := bad.Validate()
	if err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Errorf("unknown backend error = %v", err)
	} else if !strings.Contains(err.Error(), BackendCluster) || !strings.Contains(err.Error(), BackendEmulation) {
		t.Errorf("unknown backend error %q does not list %q and %q", err, BackendCluster, BackendEmulation)
	}
	dup := Suite{Name: "x", Backends: []string{BackendCluster, BackendCluster}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate backend error = %v", err)
	}
}

// TestEngineBackendDispatch runs a two-backend suite through the full
// engine and checks that emulation cells took the runner path while
// test-fake cells folded the double's constant metrics — including the
// latency lane only that backend feeds.
func TestEngineBackendDispatch(t *testing.T) {
	RegisterBackend(fakeBackend{})
	suite := Suite{
		Name:         "dispatch",
		Seed:         1,
		SeedsPerCell: 2,
		Steps:        60,
		FitSamples:   200,
		AttackRates:  []float64{0.1},
		N1s:          []int{3},
		Policies:     []PolicyKind{PolicyPeriodic},
		Backends:     []string{BackendEmulation, "test-fake"},
	}
	res, err := Run(context.Background(), suite, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	emu, fake := res.Cells[0], res.Cells[1]
	if emu.Cell.Backend != "" || fake.Cell.Backend != "test-fake" {
		t.Fatalf("cell backends = %q, %q", emu.Cell.Backend, fake.Cell.Backend)
	}
	if emu.Aggregate.Latency != nil {
		t.Errorf("emulation cell grew a latency summary: %+v", *emu.Aggregate.Latency)
	}
	if math.Abs(fake.Aggregate.Availability.Mean-0.25) > 1e-12 {
		t.Errorf("fake availability mean = %v, want 0.25", fake.Aggregate.Availability.Mean)
	}
	if fake.Aggregate.Latency == nil || math.Abs(fake.Aggregate.Latency.Mean-7) > 1e-12 {
		t.Errorf("fake latency summary = %+v, want mean 7", fake.Aggregate.Latency)
	}
	if fake.Runs != int64(suite.SeedsPerCell) {
		t.Errorf("fake cell folded %d runs, want %d", fake.Runs, suite.SeedsPerCell)
	}
}

// gateBackend holds the scenario whose seed is first until open is closed;
// every other scenario returns at once.
type gateBackend struct {
	first int64
	open  chan struct{}
}

func (gateBackend) Name() string { return "test-gate" }

func (g gateBackend) Run(ctx context.Context, sc emulation.Scenario, opts BackendOptions) (emulation.Metrics, error) {
	if sc.Seed == g.first {
		select {
		case <-g.open:
		case <-ctx.Done():
			return emulation.Metrics{}, ctx.Err()
		}
	}
	return emulation.Metrics{Availability: 0.5}, nil
}

// TestRunWorkersBoundedBehindStalledBatch holds the engine's batch-buffer
// bound: while one worker is stuck in the first batch, the workers claim
// at most batchesPerWorker·Workers batches in all and then wait for the
// fold, instead of running through the whole schedule.
func TestRunWorkersBoundedBehindStalledBatch(t *testing.T) {
	suite := Suite{
		Name:         "gate",
		Seed:         5,
		SeedsPerCell: 200, // 25 batches
		Steps:        10,
		FitSamples:   200,
		AttackRates:  []float64{0.1},
		N1s:          []int{3},
		Policies:     []PolicyKind{PolicyPeriodic},
		Backends:     []string{"test-gate"},
	}
	const workers = 2
	bound := int64(batchesPerWorker * workers)
	open := make(chan struct{})
	RegisterBackend(gateBackend{first: scenarioSeed(suite.Seed, 0), open: open})
	col := telemetry.New()
	claimed := col.Counter(MetricBatchesClaimed)
	var res *Result
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = Run(context.Background(), suite, Config{Workers: workers, Telemetry: col})
		done <- err
	}()
	// Wait until the claims pass the bound or stop for 100 ms.
	for last, still := int64(-1), 0; still < 20; time.Sleep(5 * time.Millisecond) {
		n := claimed.Total()
		if n > bound {
			break
		}
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	got := claimed.Total()
	close(open)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got > bound {
		t.Errorf("%d batches claimed behind the stalled first one, want at most %d", got, bound)
	}
	if res.Scenarios != suite.NumScenarios() || res.Cells[0].Runs != int64(suite.NumScenarios()) {
		t.Errorf("folded %d scenarios (%d runs), want %d", res.Scenarios, res.Cells[0].Runs, suite.NumScenarios())
	}
}
