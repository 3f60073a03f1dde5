package fleet

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"tolerance/internal/baselines"
	"tolerance/internal/emulation"
	"tolerance/internal/nodemodel"
	"tolerance/internal/telemetry"
)

// TestTelemetryOutputInvariant is the package-wide telemetry contract:
// attaching a collector (and instrumenting the cache) must not change a
// single byte of the serialized Result.
func TestTelemetryOutputInvariant(t *testing.T) {
	suite := testSuite()
	plain, err := Run(context.Background(), suite, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	cache := NewStrategyCache()
	cache.Instrument(col)
	instrumented, err := Run(context.Background(), suite, Config{
		Workers: 4, Cache: cache, Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	bPlain, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	bInstr, err := json.Marshal(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if string(bPlain) != string(bInstr) {
		t.Errorf("telemetry changed the result:\nplain: %s\ninstr: %s", bPlain, bInstr)
	}
}

// TestTelemetrySnapshotReconciles checks the manifest reconciliation
// contract: after a run, the folded counter equals the scheduled total, the
// started counter covers every fresh execution, the per-scenario histograms
// saw every run, and the coarse phases were recorded.
func TestTelemetrySnapshotReconciles(t *testing.T) {
	suite := testSuite()
	col := telemetry.New()
	cache := NewStrategyCache()
	cache.Instrument(col)
	res, err := Run(context.Background(), suite, Config{
		Workers: 4, Cache: cache, Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	total := int64(res.Scenarios)
	if got := s.Counter(MetricScenariosFolded); got != total {
		t.Errorf("%s = %d, want %d", MetricScenariosFolded, got, total)
	}
	if got := s.Counter(MetricScenariosStarted); got != total {
		t.Errorf("%s = %d, want %d (no replays)", MetricScenariosStarted, got, total)
	}
	if got := s.Counter(MetricScenariosReplayed); got != 0 {
		t.Errorf("%s = %d, want 0", MetricScenariosReplayed, got)
	}
	if got := s.Counter(MetricBatchesClaimed); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricBatchesClaimed, got)
	}
	if got := s.Counter(MetricWorkerBusyNS); got <= 0 {
		t.Errorf("%s = %d, want > 0", MetricWorkerBusyNS, got)
	}
	for _, name := range []string{MetricScenarioDurationNS, MetricScenarioSteps} {
		if got := s.Histograms[name].Count; got != total {
			t.Errorf("histogram %s count = %d, want %d", name, got, total)
		}
	}
	if h := s.Histograms[MetricScenarioSteps]; h.Sum != int64(suite.Steps)*h.Count {
		t.Errorf("%s sums to %d over %d scenarios, want %d steps each", MetricScenarioSteps, h.Sum, h.Count, suite.Steps)
	}
	if got := s.Gauges[MetricScenariosTotal]; got != float64(total) {
		t.Errorf("gauge %s = %v, want %v", MetricScenariosTotal, got, total)
	}
	phases := map[string]bool{}
	for _, p := range s.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"fleet.fit", "fleet.run"} {
		if !phases[want] {
			t.Errorf("phase %q missing from snapshot (have %v)", want, s.Phases)
		}
	}
	// The instrumented cache joins the same snapshot.
	if got := s.Counter("cache.policy_builds"); got < 1 {
		t.Errorf("cache.policy_builds = %d, want >= 1", got)
	}
	if got := s.Counter("cache.fit_solves"); got != 1 {
		t.Errorf("cache.fit_solves = %d, want 1 (one suite-wide fit)", got)
	}
}

// TestTelemetryCountsReplays: scenarios folded from checkpoint records
// count as folded and replayed, never as started — a resumed run's manifest
// still reconciles (folded == total).
func TestTelemetryCountsReplays(t *testing.T) {
	suite := testSuite()
	var records []RunRecord
	if _, err := Run(context.Background(), suite, Config{
		Workers: 2,
		OnRecord: func(rec RunRecord) error {
			records = append(records, rec)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	completed := make(map[int]RunRecord)
	for _, rec := range records[:len(records)/2] {
		completed[rec.Index] = rec
	}

	col := telemetry.New()
	res, err := Run(context.Background(), suite, Config{
		Workers: 2, Completed: tableOf(completed), Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	total := int64(res.Scenarios)
	replayed := int64(len(completed))
	if got := s.Counter(MetricScenariosFolded); got != total {
		t.Errorf("folded = %d, want %d", got, total)
	}
	if got := s.Counter(MetricScenariosReplayed); got != replayed {
		t.Errorf("replayed = %d, want %d", got, replayed)
	}
	if got := s.Counter(MetricScenariosStarted); got != total-replayed {
		t.Errorf("started = %d, want %d", got, total-replayed)
	}
}

// TestCheckpointSyncsCounted: an instrumented checkpoint writer counts its
// fsyncs (one per flush point the power-cut window has come due at, plus
// the closing sync) and not its flushes.
func TestCheckpointSyncsCounted(t *testing.T) {
	for _, tc := range []struct {
		before func(*CheckpointWriter)
		want   int64
		why    string
	}{
		{dueSync, 3, "two periodic + one closing"},
		{holdSync, 1, "the closing one; both flush points fell inside the window"},
	} {
		col := telemetry.New()
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		w, err := CreateCheckpoint(path, testSuite(), Shard{})
		if err != nil {
			t.Fatal(err)
		}
		w.Instrument(col)
		n := checkpointFlushEvery*2 + 3
		for i := 0; i < n; i++ {
			tc.before(w)
			if err := w.Append(RunRecord{Index: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := col.Snapshot().Counter(MetricCheckpointSyncs); got != tc.want {
			t.Errorf("%s = %d, want %d (%s)", MetricCheckpointSyncs, got, tc.want, tc.why)
		}
	}
}

// TestTelemetryHotPathZeroAllocs pins the instrumented engine loop at zero
// allocations per scenario: the exact per-scenario sequence the engine runs
// with telemetry attached — start counter, timed RunInto, step-count,
// busy-time and duration observations, then the instrumented fold of the
// record — on a warm runner.
func TestTelemetryHotPathZeroAllocs(t *testing.T) {
	col := telemetry.New()
	tm := newFleetMetrics(col)
	fits, err := emulation.NewFitSet(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := emulation.Scenario{
		N1:      6,
		DeltaR:  15,
		Steps:   200,
		Seed:    11,
		Params:  nodemodel.DefaultParams(),
		Policy:  baselines.Periodic{},
		Fits:    fits,
		FitSeed: 5,
	}
	suite := testSuite().withDefaults()
	f := newFold(suite, suite.Cells(), suite.NumScenarios(), nil, nil, col)
	var rec RunRecord
	r := emulation.NewRunner()
	if _, err := r.RunInto(s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		tm.batches.Inc()
		tm.started.Inc()
		t0 := time.Now()
		var err error
		if rec.Metrics, err = r.RunInto(s); err != nil {
			t.Fatal(err)
		}
		tm.steps.Observe(int64(s.Steps))
		d := int64(time.Since(t0))
		tm.busyNS.Add(d)
		tm.durNS.Observe(d)
		if err := f.add(&rec, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented steady-state scenario allocates %v times, want 0", allocs)
	}
}

// TestCacheWaitCounterRegistered drives the deterministic single-flight
// path: a hit on a completed entry records a hit (and a build-duration
// observation for the miss) but never a wait — waits only happen when two
// goroutines race for the same in-flight entry.
func TestCacheWaitCounterRegistered(t *testing.T) {
	col := telemetry.New()
	cache := NewStrategyCache()
	cache.Instrument(col)
	if _, err := cache.Fits(200, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Fits(200, 3); err != nil { // completed-entry hit: no wait
		t.Fatal(err)
	}
	s := col.Snapshot()
	if got := s.Counter("cache.singleflight_waits"); got != 0 {
		t.Errorf("singleflight_waits = %d, want 0 for sequential hits", got)
	}
	if got := s.Counter("cache.fit_hits"); got != 1 {
		t.Errorf("fit_hits = %d, want 1", got)
	}
	if got := s.Histograms["cache.fit_build_ns"].Count; got != 1 {
		t.Errorf("fit_build_ns count = %d, want 1", got)
	}
}
