package tolerance

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// TestErrBadInputContract is the facade error contract: every validation
// failure, across every entry point, wraps ErrBadInput.
func TestErrBadInputContract(t *testing.T) {
	ctx := context.Background()
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		name string
		call func() error
	}{
		{"Solve nil problem", func() error {
			_, err := Solve(ctx, nil)
			return err
		}},
		{"Solve negative deltaR", func() error {
			_, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel(), DeltaR: -1})
			return err
		}},
		{"Solve invalid model", func() error {
			_, err := Solve(ctx, RecoveryProblem{Model: NodeModel{PA: -1, PC1: 0.1, PC2: 0.1, PU: 0.1, Eta: 2}})
			return err
		}},
		{"Solve unknown method", func() error {
			_, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel()}, WithMethod("nope"))
			return err
		}},
		{"Solve negative budget", func() error {
			_, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel()}, WithBudget(-1))
			return err
		}},
		{"Solve Algorithm 1 budget too small", func() error {
			_, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel()},
				WithMethod(OptimizerCEM), WithBudget(1))
			return err
		}},
		{"Solve replication bad shape", func() error {
			_, err := Solve(ctx, ReplicationProblem{SMax: 0, F: 1, EpsilonA: 0.9, Q: 0.9})
			return err
		}},
		{"Solve replication with learned method", func() error {
			_, err := Solve(ctx, ReplicationProblem{SMax: 13, F: 1, EpsilonA: 0.9, Q: 0.9},
				WithMethod(OptimizerCEM))
			return err
		}},
		{"RunSuite unknown name", func() error {
			_, err := RunSuite(ctx, SuiteByName("no-such-suite"))
			return err
		}},
		{"RunSuite missing file", func() error {
			_, err := RunSuite(ctx, SuiteFromFile(missing))
			return err
		}},
		{"RunSuite malformed JSON", func() error {
			_, err := RunSuite(ctx, SuiteFromJSON([]byte("{")))
			return err
		}},
		{"RunSuite empty reference", func() error {
			_, err := RunSuite(ctx, SuiteRef{})
			return err
		}},
		{"RunSuite bad shard", func() error {
			_, err := RunSuite(ctx, SuiteByName("smoke"), WithShard(5, 2))
			return err
		}},
		{"RunSuite negative workers", func() error {
			_, err := RunSuite(ctx, SuiteByName("smoke"), WithWorkers(-1))
			return err
		}},
		{"SuiteJSON unknown name", func() error {
			_, err := SuiteJSON(SuiteByName("no-such-suite"))
			return err
		}},
		{"RegisterStrategy nil", func() error {
			return RegisterStrategy(nil)
		}},
		{"RegisterStrategy duplicate name", func() error {
			return RegisterStrategy(dupStrategy{})
		}},
		{"DetectorSensitivity zero separation", func() error {
			_, err := DetectorSensitivity(DefaultNodeModel(), []float64{0})
			return err
		}},
		{"MTTF bad n1", func() error {
			_, err := MTTF(0, 1, 1, 0.9)
			return err
		}},
		{"MTTF bad q", func() error {
			_, err := MTTF(3, 1, 1, 0)
			return err
		}},
		{"Reliability negative horizon", func() error {
			_, err := Reliability(3, 1, 1, -1, 0.9)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, does not wrap ErrBadInput", tc.name, err)
		}
	}
}

// dupStrategy collides with the built-in TOLERANCE registration.
type dupStrategy struct{}

func (dupStrategy) Name() string                    { return "TOLERANCE" }
func (dupStrategy) Describe() string                { return "dup" }
func (dupStrategy) Fingerprint(ScenarioSpec) string { return "dup" }
func (dupStrategy) Policy(context.Context, ScenarioSpec) (Policy, error) {
	return nil, errors.New("never built")
}

// TestSolveRecoveryMethods exercises the unified entry point beyond the
// threshold solvers (TestSolveRecoveryStrategyFacade covers the exact DP,
// TestLearnRecoveryStrategyFacade Algorithm 1): PPO has no thresholds but
// still decides through ShouldRecover, and a cancelled context
// short-circuits.
func TestSolveRecoveryMethods(t *testing.T) {
	ctx := context.Background()
	ppoSol, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel(), DeltaR: 15},
		WithMethod(MethodPPO), WithBudget(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ppoSol.Recovery.Thresholds) != 0 {
		t.Errorf("ppo thresholds = %v, want none", ppoSol.Recovery.Thresholds)
	}
	// The decision rule is still callable.
	_ = ppoSol.Recovery.ShouldRecover(0.9, 1)

	// A cancelled context short-circuits.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Solve(cancelled, RecoveryProblem{Model: DefaultNodeModel()}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Solve: err = %v", err)
	}
}

// TestRunSuiteStreamsRecords: the record stream delivers every scenario in
// strict index order, with cell-consistent strategy names, while the run is
// in flight.
func TestRunSuiteStreamsRecords(t *testing.T) {
	var records []ScenarioRecord
	report, err := RunSuite(context.Background(), SuiteByName("smoke"),
		WithWorkers(4),
		WithRecordHandler(func(rec ScenarioRecord) error {
			records = append(records, rec)
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != report.Scenarios {
		t.Fatalf("streamed %d records, report says %d scenarios", len(records), report.Scenarios)
	}
	for i, rec := range records {
		if rec.Index != i {
			t.Errorf("record %d has index %d (stream must be index-ordered)", i, rec.Index)
		}
		if want := report.Cells[rec.Cell].Strategy; rec.Strategy != want {
			t.Errorf("record %d strategy %q, cell says %q", i, rec.Strategy, want)
		}
		if rec.Metrics.Availability < 0 || rec.Metrics.Availability > 1 {
			t.Errorf("record %d availability %v", i, rec.Metrics.Availability)
		}
	}

	// A handler error aborts the run.
	boom := errors.New("boom")
	if _, err := RunSuite(context.Background(), SuiteByName("smoke"),
		WithRecordHandler(func(ScenarioRecord) error { return boom }),
	); !errors.Is(err, boom) {
		t.Errorf("handler error not propagated: %v", err)
	}
}

// TestStreamSuite: the iterator form yields the same records and supports
// early exit; failures surface as a final yielded error.
func TestStreamSuite(t *testing.T) {
	ctx := context.Background()
	var indices []int
	for rec, err := range StreamSuite(ctx, SuiteByName("smoke"), WithWorkers(2)) {
		if err != nil {
			t.Fatal(err)
		}
		indices = append(indices, rec.Index)
	}
	if len(indices) != 4 {
		t.Fatalf("streamed %d records, want 4", len(indices))
	}

	// Breaking out of the loop stops the run cleanly.
	count := 0
	for _, err := range StreamSuite(ctx, SuiteByName("smoke")) {
		if err != nil {
			t.Fatal(err)
		}
		count++
		break
	}
	if count != 1 {
		t.Fatalf("early exit consumed %d records", count)
	}

	// Errors arrive as the final yield.
	sawErr := false
	for _, err := range StreamSuite(ctx, SuiteByName("no-such-suite")) {
		if err != nil {
			sawErr = true
			if !errors.Is(err, ErrBadInput) {
				t.Errorf("stream error = %v, want ErrBadInput", err)
			}
		}
	}
	if !sawErr {
		t.Error("unknown suite streamed no error")
	}
}

// TestRunSuiteCancellation: cancelling mid-run returns the context error
// promptly, after an index-ordered prefix of records has streamed.
func TestRunSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	_, err := RunSuite(ctx, SuiteByName("smoke"),
		WithWorkers(2),
		WithRecordHandler(func(rec ScenarioRecord) error {
			got = append(got, rec.Index)
			if len(got) == 2 {
				cancel()
			}
			return nil
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) < 2 {
		t.Fatalf("streamed %d records before cancel, want >= 2", len(got))
	}
	for i, idx := range got {
		if idx != i {
			t.Errorf("record %d has index %d: cancelled stream must still be an ordered prefix", i, idx)
		}
	}
}

// TestCompareDefaults: every (N1, ΔR) group of the table7 suite carries
// the full Table 7 row shape — the four strategies, each folded over the
// cell's seeds, with in-range means and non-negative half-widths.
func TestCompareDefaults(t *testing.T) {
	report, err := RunSuite(context.Background(), SuiteByName("table7"),
		WithSteps(120), WithSeedsPerCell(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 36 || report.Scenarios != 72 {
		t.Fatalf("report shape: %d cells, %d scenarios; want 36, 72", len(report.Cells), report.Scenarios)
	}
	for _, n1 := range []int{3, 6, 9} {
		for _, deltaR := range []int{15, 25, InfiniteDeltaR} {
			group := table7Group(report, n1, deltaR)
			for _, name := range []string{"TOLERANCE", "NO-RECOVERY", "PERIODIC", "PERIODIC-ADAPTIVE"} {
				r, ok := group[name]
				if !ok {
					t.Errorf("N1=%d ΔR=%d: missing strategy %q", n1, deltaR, name)
					continue
				}
				if r.Runs != 2 {
					t.Errorf("N1=%d ΔR=%d %s folded %d runs, want 2", n1, deltaR, name, r.Runs)
				}
				if r.Availability < 0 || r.Availability > 1 {
					t.Errorf("N1=%d ΔR=%d %s availability %v", n1, deltaR, name, r.Availability)
				}
				if r.AvailabilityCI < 0 || r.TimeToRecoveryCI < 0 || r.RecoveryFreqCI < 0 {
					t.Errorf("N1=%d ΔR=%d %s has a negative confidence half-width", n1, deltaR, name)
				}
				if r.AvgNodes <= 0 {
					t.Errorf("N1=%d ΔR=%d %s avg nodes %v", n1, deltaR, name, r.AvgNodes)
				}
			}
		}
	}
}

// TestDetectorSensitivityShape covers the Fig 14 sweep beyond the examples:
// point count, finite values, and input validation.
func TestDetectorSensitivityShape(t *testing.T) {
	seps := []float64{0.4, 0.7, 1.0}
	pts, err := DetectorSensitivity(DefaultNodeModel(), seps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(seps) {
		t.Fatalf("%d points, want %d", len(pts), len(seps))
	}
	for i, p := range pts {
		if p[0] <= 0 {
			t.Errorf("point %d divergence %v, want > 0", i, p[0])
		}
		if p[1] <= 0 || p[1] >= 1 {
			t.Errorf("point %d J* %v, want in (0, 1)", i, p[1])
		}
	}
	if _, err := DetectorSensitivity(DefaultNodeModel(), []float64{-0.5}); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative separation: err = %v", err)
	}
	if pts2, err := DetectorSensitivity(DefaultNodeModel(), nil); err != nil || len(pts2) != 0 {
		t.Errorf("empty separations: pts = %v, err = %v", pts2, err)
	}
}

// TestRunSuiteLearnedKind: the acceptance path — a JSON suite definition
// with a learned policy kind runs end to end through the public facade.
func TestRunSuiteLearnedKind(t *testing.T) {
	data := []byte(fmt.Sprintf(`{
		"version": 1,
		"name": "learned-facade",
		"seed": 9,
		"seedsPerCell": 1,
		"steps": 60,
		"fitSamples": 200,
		"attackRates": [0.1],
		"n1s": [3],
		"deltaRs": [15],
		"policies": ["learned:%s", "TOLERANCE"],
		"learned": {"budget": 20, "episodes": 4, "horizon": 50}
	}`, "cem"))
	report, err := RunSuite(context.Background(), SuiteFromJSON(data), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 2 || report.Scenarios != 2 {
		t.Fatalf("report shape: %+v", report)
	}
	if report.Cells[0].Strategy != "learned:cem" {
		t.Errorf("cell 0 strategy = %q", report.Cells[0].Strategy)
	}
}
