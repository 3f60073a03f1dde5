package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/emulation"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
)

// testSuite is a small grid that still exercises multiple cells, policies
// and out-of-order completion under parallelism.
func testSuite() Suite {
	return Suite{
		Name:         "test",
		Seed:         7,
		SeedsPerCell: 2,
		Steps:        80,
		FitSamples:   300,
		AttackRates:  []float64{0.1},
		N1s:          []int{3, 6},
		DeltaRs:      []int{15},
		Policies: []PolicyKind{
			PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
		},
	}
}

// TestRunDeterministicAcrossWorkers is the reproducibility contract: one
// worker and eight workers must produce byte-identical serialized results.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	suite := testSuite()
	r1, err := Run(context.Background(), suite, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(context.Background(), suite, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := json.Marshal(r8)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b8) {
		t.Errorf("1-worker and 8-worker results differ:\n%s\n%s", b1, b8)
	}
	if r1.Scenarios != suite.NumScenarios() {
		t.Errorf("ran %d scenarios, want %d", r1.Scenarios, suite.NumScenarios())
	}
}

// TestStrategyCacheSolvesEachProblemOnce checks the memoization contract:
// a grid whose TOLERANCE cells share model parameters and DeltaR triggers
// exactly one DP solve and one LP solve; adding a second DeltaR doubles the
// solve count but nothing else does (seeds, workloads, N1 with equal f),
// and the two DeltaRs share one ladder of induction stages.
func TestStrategyCacheSolvesEachProblemOnce(t *testing.T) {
	suite := Suite{
		Name:         "cache-test",
		Seed:         3,
		SeedsPerCell: 3,
		Steps:        60,
		FitSamples:   200,
		AttackRates:  []float64{0.1},
		// Two workloads and two system sizes with identical f = min((N1-1)/2, 2):
		// neither changes the control problems.
		Workloads: []emulation.BackgroundWorkload{
			{Lambda: 20, MeanServiceSteps: 4},
			{Lambda: 5, MeanServiceSteps: 10},
		},
		N1s:      []int{5, 6},
		DeltaRs:  []int{15},
		Policies: []PolicyKind{PolicyTolerance},
	}
	cache := NewStrategyCache()
	if _, err := Run(context.Background(), suite, Config{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.RecoverySolves != 1 {
		t.Errorf("RecoverySolves = %d, want 1 (one distinct (params, DeltaR))", stats.RecoverySolves)
	}
	if stats.ReplicationSolves != 1 {
		t.Errorf("ReplicationSolves = %d, want 1", stats.ReplicationSolves)
	}
	// 2 workloads x 2 N1s = 4 TOLERANCE cells; the engine resolves each
	// cell's policy once per run (scenarios of a cell share the per-run
	// template), and the cache solved each control problem exactly once.
	wantRequests := int64(suite.NumCells())
	if got := stats.PolicyHits + stats.PolicyBuilds; got != wantRequests {
		t.Errorf("policy requests = %d, want %d", got, wantRequests)
	}
	if stats.PolicyBuilds != 1 {
		t.Errorf("PolicyBuilds = %d, want 1 (one distinct TOLERANCE fingerprint)", stats.PolicyBuilds)
	}

	// A second DeltaR is a second distinct control problem per solver.
	suite.DeltaRs = []int{15, 25}
	cache = NewStrategyCache()
	if _, err := Run(context.Background(), suite, Config{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	stats = cache.Stats()
	if stats.RecoverySolves != 2 {
		t.Errorf("RecoverySolves = %d, want 2 (two DeltaRs)", stats.RecoverySolves)
	}
	if stats.ReplicationSolves != 2 {
		t.Errorf("ReplicationSolves = %d, want 2", stats.ReplicationSolves)
	}
	if stats.PolicyBuilds != 2 {
		t.Errorf("PolicyBuilds = %d, want 2 (two DeltaRs)", stats.PolicyBuilds)
	}
	// Both DeltaRs are windows of one ladder per node model, climbed once
	// to the deeper window: DeltaR = 25 needs 24 stages, and DeltaR = 15
	// reads its 14 from the same ones.
	if n := len(cache.ladders.m); n != 1 {
		t.Fatalf("%d ladders, want 1 (one node model)", n)
	}
	for _, entry := range cache.ladders.m {
		if d := entry.val.Depth(); d != 24 {
			t.Errorf("ladder depth %d, want 24", d)
		}
	}
}

// TestHealthyProbOncePerNodeModel: q depends on the node model, the
// recovery strategy and ΔR only, so system sizes with different f share one
// evaluation while each solves its own LP, and cache.healthy_evals reports
// the count.
func TestHealthyProbOncePerNodeModel(t *testing.T) {
	suite := Suite{
		Name:         "healthy-test",
		Seed:         3,
		SeedsPerCell: 1,
		Steps:        20,
		FitSamples:   200,
		AttackRates:  []float64{0.1},
		N1s:          []int{3, 6}, // f = 1 and f = 2
		DeltaRs:      []int{15, 25},
		Policies:     []PolicyKind{PolicyTolerance},
	}
	cache := NewStrategyCache()
	col := telemetry.New()
	cache.Instrument(col)
	if _, err := Run(context.Background(), suite, Config{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.HealthyEvals != 2 || stats.ReplicationSolves != 4 {
		t.Errorf("HealthyEvals = %d, ReplicationSolves = %d; want 2 (one per ΔR) and 4 (per ΔR and f)",
			stats.HealthyEvals, stats.ReplicationSolves)
	}
	if got := col.Snapshot().Counters["cache.healthy_evals"]; got != stats.HealthyEvals {
		t.Errorf("cache.healthy_evals = %d, Stats says %d", got, stats.HealthyEvals)
	}
}

// TestFitCacheEquivalence is the fit-sharing contract: every record a run
// with the suite-level fit cache produces equals emulation.Run of the same
// scenario with no shared fit, which refits Ẑ inline from the same suite
// fit seed — and the cached run fits exactly once.
func TestFitCacheEquivalence(t *testing.T) {
	suite := testSuite().withDefaults()
	cache := NewStrategyCache()
	var recs []RunRecord
	if _, err := Run(context.Background(), suite, Config{
		Workers:  4,
		Cache:    cache,
		OnRecord: func(rec RunRecord) error { recs = append(recs, rec); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != suite.NumScenarios() {
		t.Fatalf("run emitted %d records, want %d", len(recs), suite.NumScenarios())
	}
	cells := suite.Cells()
	oracle := NewStrategyCache() // policies only; its fit cache stays unused
	for _, rec := range recs {
		sc, err := oracle.scenarioFor(context.Background(), suite.Fingerprint(), &cells[rec.Cell], suite)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = scenarioSeed(suite.Seed, rec.Index)
		sc.FitSeed = emulation.FitStreamSeed(suite.Seed)
		sc.Fits = nil
		inline, err := emulation.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if *inline != rec.Metrics {
			t.Errorf("scenario %d: fit-cached metrics %+v, inline fit %+v", rec.Index, rec.Metrics, *inline)
		}
	}
	stats := cache.Stats()
	if stats.FitSolves != 1 {
		t.Errorf("FitSolves = %d, want 1 (one fit per suite)", stats.FitSolves)
	}
	// The engine resolves the suite fit once per run, not once per
	// scenario, so a fresh cache sees exactly one request.
	if stats.FitSolves+stats.FitHits != 1 {
		t.Errorf("fit requests = %d, want 1", stats.FitSolves+stats.FitHits)
	}
}

func TestRunResultShape(t *testing.T) {
	suite := testSuite()
	res, err := Run(context.Background(), suite, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != suite.NumCells() {
		t.Fatalf("got %d cells, want %d", len(res.Cells), suite.NumCells())
	}
	for i, c := range res.Cells {
		if c.Cell.Index != i {
			t.Errorf("cell %d has index %d", i, c.Cell.Index)
		}
		if c.Runs != int64(suite.SeedsPerCell) {
			t.Errorf("cell %d folded %d runs, want %d", i, c.Runs, suite.SeedsPerCell)
		}
		a := c.Aggregate
		if a.Availability.Mean < 0 || a.Availability.Mean > 1 {
			t.Errorf("cell %d availability %v", i, a.Availability.Mean)
		}
		if a.Cost.Mean < 0 {
			t.Errorf("cell %d cost %v", i, a.Cost.Mean)
		}
	}
	// The evaluation ordering of Table 7 must survive the fleet path:
	// within one configuration, TOLERANCE is at least as available as
	// NO-RECOVERY.
	byPolicy := map[PolicyKind]float64{}
	for _, c := range res.Cells {
		if c.Cell.N1 == 6 {
			byPolicy[c.Cell.Policy] = c.Aggregate.Availability.Mean
		}
	}
	if byPolicy[PolicyTolerance] < byPolicy[PolicyNoRecovery] {
		t.Errorf("TOLERANCE availability %v below NO-RECOVERY %v",
			byPolicy[PolicyTolerance], byPolicy[PolicyNoRecovery])
	}
}

func TestRunProgressAndCancellation(t *testing.T) {
	suite := testSuite()
	var calls int
	var last int
	_, err := Run(context.Background(), suite, Config{
		Workers: 2,
		Progress: func(done, total int) {
			calls++
			last = done
			if total != suite.NumScenarios() {
				t.Errorf("progress total = %d, want %d", total, suite.NumScenarios())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != suite.NumScenarios() || last != suite.NumScenarios() {
		t.Errorf("progress calls = %d, last = %d, want %d", calls, last, suite.NumScenarios())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, suite, Config{Workers: 2}); err == nil {
		t.Error("cancelled context should fail")
	}
}

func TestSuiteValidation(t *testing.T) {
	bad := []Suite{
		{AttackRates: []float64{0}},
		{AttackRates: []float64{1.5}},
		{CrashProfiles: []CrashProfile{{PC1: 0, PC2: 0.1}}},
		{UpdateRates: []float64{-0.1}},
		{Etas: []float64{0.5}},
		{N1s: []int{0}},
		{N1s: []int{99}},
		{DeltaRs: []int{-1}},
		{Policies: []PolicyKind{"NOPE"}},
		{EpsilonA: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("suite %d should fail validation", i)
		}
	}
	if err := (Suite{}).Validate(); err != nil {
		t.Errorf("default suite invalid: %v", err)
	}
}

func TestCellExpansionOrder(t *testing.T) {
	s := Suite{
		AttackRates: []float64{0.05, 0.1},
		DeltaRs:     []int{15, 25},
		Policies:    []PolicyKind{PolicyTolerance, PolicyPeriodic},
	}
	cells := s.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells", len(cells))
	}
	// Policy is the innermost axis, then DeltaR, then the model axes.
	if cells[0].Policy != PolicyTolerance || cells[1].Policy != PolicyPeriodic {
		t.Error("policy not innermost")
	}
	if cells[0].DeltaR != 15 || cells[2].DeltaR != 25 {
		t.Error("deltaR not second-innermost")
	}
	if cells[0].PA != 0.05 || cells[4].PA != 0.1 {
		t.Error("attack rate not outermost")
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
	}
	// f follows the paper's rule (shared with emulation.Scenario.ApplyDefaults).
	if f := emulation.DefaultThreshold(3); f != 1 {
		t.Errorf("f(3) = %d", f)
	}
	if f := emulation.DefaultThreshold(9); f != 2 {
		t.Errorf("f(9) = %d", f)
	}
	if f := emulation.DefaultThreshold(1); f != 1 {
		t.Errorf("f(1) = %d", f)
	}
}

func TestBuiltinSuites(t *testing.T) {
	suites := Builtin()
	if len(suites) < 3 {
		t.Fatalf("%d built-in suites", len(suites))
	}
	seen := map[string]bool{}
	for _, s := range suites {
		if seen[s.Name] {
			t.Errorf("duplicate suite %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("suite %q invalid: %v", s.Name, err)
		}
		if _, err := Lookup(s.Name); err != nil {
			t.Errorf("Lookup(%q): %v", s.Name, err)
		}
	}
	// The flagship suites are genuinely fleet-scale (>= 100 scenarios) and
	// use all four strategies.
	for _, name := range []string{"paper-grid", "scada-sweep"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.NumScenarios(); n < 100 {
			t.Errorf("suite %q has %d scenarios, want >= 100", name, n)
		}
		if len(s.withDefaults().Policies) != 4 {
			t.Errorf("suite %q does not cover the four strategies", name)
		}
	}
	if _, err := Lookup("no-such-suite"); err == nil {
		t.Error("unknown suite should fail")
	}
}

func TestScenarioSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := scenarioSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if scenarioSeed(1, 0) == scenarioSeed(2, 0) {
		t.Error("suite seeds not separated")
	}
	if scenarioSeed(1, 5) != scenarioSeed(1, 5) {
		t.Error("seed not deterministic")
	}
}

// TestLearnedPolicyKind runs a learned:* policy kind end to end: the kind
// validates in a suite definition, survives the JSON round trip, executes
// under the engine with byte-identical output at any worker count, and the
// training run is memoized (one build per cell fingerprint, not per seed).
func TestLearnedPolicyKind(t *testing.T) {
	suite := Suite{
		Name:         "learned-test",
		Seed:         5,
		SeedsPerCell: 2,
		Steps:        80,
		FitSamples:   200,
		AttackRates:  []float64{0.1},
		N1s:          []int{3},
		DeltaRs:      []int{15},
		Policies:     []PolicyKind{"learned:cem", PolicyTolerance},
		Learned:      &LearnedConfig{Budget: 20, Episodes: 4, Horizon: 50},
	}
	data, err := DumpSuite(suite)
	if err != nil {
		t.Fatalf("learned kind rejected by DumpSuite: %v", err)
	}
	parsed, err := ParseSuite(data)
	if err != nil {
		t.Fatalf("learned kind rejected by ParseSuite: %v", err)
	}
	if parsed.Learned == nil || parsed.Learned.Budget != 20 {
		t.Fatalf("learned config lost in round trip: %+v", parsed.Learned)
	}

	cache := NewStrategyCache()
	r1, err := Run(context.Background(), parsed, Config{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.PolicyBuilds != 2 {
		t.Errorf("PolicyBuilds = %d, want 2 (one per cell, shared across seeds)", stats.PolicyBuilds)
	}
	r8, err := Run(context.Background(), parsed, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b8, _ := json.Marshal(r8)
	if string(b1) != string(b8) {
		t.Errorf("learned suite differs across worker counts:\n%s\n%s", b1, b8)
	}
	if got := string(r1.Cells[0].Cell.Policy); got != "learned:cem" {
		t.Errorf("cell 0 policy = %q", got)
	}
}

// TestUnknownPolicyKindRejected: names outside the registry fail suite
// validation with ErrBadSuite before any scenario runs.
func TestUnknownPolicyKindRejected(t *testing.T) {
	suite := testSuite()
	suite.Policies = []PolicyKind{"learned:nope"}
	if err := suite.Validate(); !errors.Is(err, ErrBadSuite) {
		t.Errorf("Validate = %v, want ErrBadSuite", err)
	}
	if _, err := Run(context.Background(), suite, Config{}); !errors.Is(err, ErrBadSuite) {
		t.Errorf("Run = %v, want ErrBadSuite", err)
	}
}

// TestLearnedTapeBounded: a learned block whose Algorithm 1 tape would
// exceed recovery.MaxTapeDraws — an overflowing product or a 64 GB one —
// fails suite parsing with ErrBadSuite instead of crashing the process
// that trains it, a worker included.
func TestLearnedTapeBounded(t *testing.T) {
	var smoke Suite
	for _, s := range Builtin() {
		if s.Name == "learned-smoke" {
			smoke = s
		}
	}
	for _, lc := range []LearnedConfig{
		{Episodes: 1 << 31, Horizon: 1 << 31},
		{Episodes: 4_000_000, Horizon: 1000},
		{Horizon: recovery.MaxTapeDraws / 2},
	} {
		raw, err := DumpSuite(smoke)
		if err != nil {
			t.Fatal(err)
		}
		var file map[string]any
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		file["learned"] = lc
		if raw, err = json.Marshal(file); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSuite(raw); !errors.Is(err, ErrBadSuite) {
			t.Errorf("episodes %d, horizon %d: ParseSuite = %v, want ErrBadSuite", lc.Episodes, lc.Horizon, err)
		}
	}
	s := smoke
	s.Learned = &LearnedConfig{Episodes: 1, Horizon: (recovery.MaxTapeDraws - 2) / 2}
	if err := s.Validate(); err != nil {
		t.Errorf("a tape of exactly MaxTapeDraws draws: %v", err)
	}
}

// TestRunCancellationLeavesValidCheckpoint is the cancellation contract:
// cancelling the context mid-run returns promptly with the context error,
// and a checkpoint written from the record stream holds a valid
// index-ordered prefix that a resumed run completes byte-identically from.
func TestRunCancellationLeavesValidCheckpoint(t *testing.T) {
	suite := testSuite()
	whole, err := Run(context.Background(), suite, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cancelled.jsonl")
	w, err := CreateCheckpoint(path, suite, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recorded := 0
	_, err = Run(ctx, suite, Config{
		Workers: 2,
		OnRecord: func(rec RunRecord) error {
			if err := w.Append(rec); err != nil {
				return err
			}
			if recorded++; recorded == 3 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("cancelled checkpoint unreadable: %v", err)
	}
	if ck.Records.Len() < 3 {
		t.Fatalf("checkpoint holds %d records, want >= 3", ck.Records.Len())
	}
	w2, err := AppendCheckpoint(path, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), suite, Config{
		Completed: ck.Records,
		OnRecord:  w2.Append,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	bw, _ := json.Marshal(whole)
	br, _ := json.Marshal(resumed)
	if string(bw) != string(br) {
		t.Errorf("resumed-after-cancel result differs from whole run")
	}
}

// TestPolicyCacheNotPoisonedByCancellation: a construction aborted by a
// cancelled context must not leave the context error memoized in a shared
// strategy cache — the slot does not keep a cancelled resolution, so a
// later run with a live context rebuilds the policy.
func TestPolicyCacheNotPoisonedByCancellation(t *testing.T) {
	suite := Suite{
		Name:        "poison-test",
		Seed:        3,
		AttackRates: []float64{0.1},
		N1s:         []int{3},
		DeltaRs:     []int{15},
		Policies:    []PolicyKind{"learned:cem"},
		Learned:     &LearnedConfig{Budget: 10, Episodes: 2, Horizon: 30},
	}.withDefaults()
	cell := suite.Cells()[0]
	cache := NewStrategyCache()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.PolicyFor(cancelled, cell, suite); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PolicyFor: err = %v, want context.Canceled", err)
	}
	pol, err := cache.PolicyFor(context.Background(), cell, suite)
	if err != nil {
		t.Fatalf("shared cache poisoned by cancellation: %v", err)
	}
	if _, ok := pol.(*baselines.Tolerance); !ok {
		t.Errorf("rebuilt policy %T, want learned thresholds in a *baselines.Tolerance", pol)
	}
}

// TestLearnedWorkersByteIdentical is the new training-determinism contract
// at the suite level: a learned grid trained with any Learned.Workers value
// produces byte-identical output, and the worker count does not enter the
// suite fingerprint — so checkpoints and shards taken at different training
// parallelism interoperate.
func TestLearnedWorkersByteIdentical(t *testing.T) {
	suite := Suite{
		Name:         "learned-workers",
		Seed:         5,
		SeedsPerCell: 1,
		Steps:        60,
		FitSamples:   200,
		AttackRates:  []float64{0.1},
		N1s:          []int{3},
		DeltaRs:      []int{15},
		Policies:     []PolicyKind{PolicyKind("learned:cem"), PolicyKind("learned:ppo")},
		Learned:      &LearnedConfig{Budget: 30, Episodes: 4, Horizon: 40, Iterations: 2, Workers: 1},
	}
	sequential, err := Run(context.Background(), suite, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := json.Marshal(sequential)
	if err != nil {
		t.Fatal(err)
	}
	seqFP := suite.Fingerprint()
	for _, workers := range []int{2, 8} {
		suite.Learned.Workers = workers
		if got := suite.Fingerprint(); got != seqFP {
			t.Errorf("learned workers %d changed the suite fingerprint (%s != %s)", workers, got, seqFP)
		}
		parallel, err := Run(context.Background(), suite, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parJSON, err := json.Marshal(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if string(parJSON) != string(seqJSON) {
			t.Errorf("learned workers %d output differs from sequential training", workers)
		}
	}
}
