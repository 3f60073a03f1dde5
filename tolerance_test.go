package tolerance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tolerance/internal/cmdp"
)

// TestSolveRecoveryStrategyFacade: the exact DP solves Problem 1 to a
// single belief threshold (ΔR = ∞), J* lies in (0, 1), and the decision
// rule switches at the threshold.
func TestSolveRecoveryStrategyFacade(t *testing.T) {
	sol, err := Solve(context.Background(), RecoveryProblem{Model: DefaultNodeModel(), DeltaR: InfiniteDeltaR})
	if err != nil {
		t.Fatal(err)
	}
	s := sol.Recovery
	if sol.Method != MethodDP || sol.Replication != nil {
		t.Fatalf("dp solution shape: %+v", sol)
	}
	if len(s.Thresholds) != 1 {
		t.Fatalf("thresholds = %v", s.Thresholds)
	}
	if s.ExpectedCost <= 0 || s.ExpectedCost >= 1 {
		t.Errorf("J* = %v", s.ExpectedCost)
	}
	th := s.Thresholds[0]
	if s.ShouldRecover(th-0.01, 1) {
		t.Error("recovered below threshold")
	}
	if !s.ShouldRecover(th+0.01, 1) {
		t.Error("did not recover above threshold")
	}
}

// TestLearnRecoveryStrategyFacade: Algorithm 1 (CEM) through Solve learns
// one threshold close to the DP's, at an estimated cost within a stated gap
// of the exact J* — the Table 2 claim at the facade's episode and horizon
// defaults.
func TestLearnRecoveryStrategyFacade(t *testing.T) {
	ctx := context.Background()
	prob := RecoveryProblem{Model: DefaultNodeModel(), DeltaR: InfiniteDeltaR}
	learned, err := Solve(ctx, prob, WithMethod(OptimizerCEM), WithBudget(120), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if learned.Method != OptimizerCEM || len(learned.Recovery.Thresholds) != 1 {
		t.Fatalf("cem solution shape: %+v", learned)
	}
	exact, err := Solve(ctx, prob)
	if err != nil {
		t.Fatal(err)
	}
	if got, opt := learned.Recovery.Thresholds[0], exact.Recovery.Thresholds[0]; math.Abs(got-opt) > 0.1 {
		t.Errorf("learned threshold %v, DP threshold %v: more than 0.1 apart", got, opt)
	}
	if got, opt := learned.Recovery.ExpectedCost, exact.Recovery.ExpectedCost; math.Abs(got-opt) > 0.2*opt {
		t.Errorf("learned J = %v, more than 20%% from the DP optimum %v", got, opt)
	}
}

// TestReplicationInputChecks: every malformed replication input is refused
// by name in internal/cmdp with ErrInvalidModel and, where the facade can
// express it, by Solve with ErrBadInput — never as a solver error or a
// silent ErrInfeasible. A zero f_S entry has no facade row:
// NewBinomialModel's smoothing keeps every entry positive.
func TestReplicationInputChecks(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		// cmdpErr reaches the case through internal/cmdp; facade through
		// tolerance.Solve, or is nil.
		cmdpErr func() error
		facade  *ReplicationProblem
		// mention is what the cmdp error must name.
		mention string
	}{
		{"NaN epsilonA via NewBinomialModel", func() error {
			_, err := cmdp.NewBinomialModel(13, 1, nan, 0.95, 0)
			return err
		}, &ReplicationProblem{SMax: 13, F: 1, EpsilonA: nan, Q: 0.95}, "epsilonA = NaN"},
		{"NaN epsilonA on a built model", func() error {
			m, err := cmdp.NewBinomialModel(13, 1, 0.9, 0.95, 0)
			if err != nil {
				return err
			}
			m.EpsilonA = nan
			_, err = cmdp.Solve(m)
			return err
		}, nil, "epsilonA = NaN"},
		{"NaN q", func() error {
			_, err := cmdp.NewBinomialModel(13, 1, 0.9, nan, 0)
			return err
		}, &ReplicationProblem{SMax: 13, F: 1, EpsilonA: 0.9, Q: nan}, "q = NaN"},
		{"zero f_S entry", func() error {
			m, err := cmdp.NewBinomialModel(13, 1, 0.9, 0.95, 0)
			if err != nil {
				return err
			}
			// Move one entry's mass to its neighbour: still stochastic, so
			// Validate passes, but assumption B fails.
			m.FS[0][5][12] += m.FS[0][5][13]
			m.FS[0][5][13] = 0
			if err := m.Validate(); err != nil {
				return err
			}
			_, err = cmdp.Solve(m)
			return err
		}, nil, "fS(13|5,0) = 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.cmdpErr()
			if !errors.Is(err, cmdp.ErrInvalidModel) || !strings.Contains(fmt.Sprint(err), c.mention) {
				t.Errorf("cmdp: err %v, want ErrInvalidModel naming %q", err, c.mention)
			}
			if c.facade == nil {
				return
			}
			if _, err := Solve(context.Background(), *c.facade); !errors.Is(err, ErrBadInput) {
				t.Errorf("facade: err %v, want ErrBadInput", err)
			}
		})
	}
}

// TestSolveReplicationStrategyFacade: Algorithm 2's LP returns one add
// probability per state 0..SMax, meets the availability bound, and adds
// at s = 0.
func TestSolveReplicationStrategyFacade(t *testing.T) {
	sol, err := Solve(context.Background(), ReplicationProblem{SMax: 13, F: 1, EpsilonA: 0.9, Q: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	r := sol.Replication
	if sol.Recovery != nil || r == nil {
		t.Fatalf("replication solution shape: %+v", sol)
	}
	if len(r.AddProbability) != 14 {
		t.Fatalf("policy length %d", len(r.AddProbability))
	}
	if r.Availability < 0.9-1e-6 {
		t.Errorf("availability = %v", r.Availability)
	}
	rng := rand.New(rand.NewSource(1))
	// s = 0 should essentially always add under a tight constraint.
	adds := 0
	for i := 0; i < 50; i++ {
		if r.ShouldAdd(rng, 0) {
			adds++
		}
	}
	if adds == 0 {
		t.Error("never adds at s=0")
	}
}

// TestRunFleetSuiteFacade: a built-in suite runs to the expected report
// shape, and the strategy cache solves each distinct control problem once.
func TestRunFleetSuiteFacade(t *testing.T) {
	if names := SuiteNames(); len(names) < 3 {
		t.Fatalf("built-in suites: %v", names)
	}
	report, err := RunSuite(context.Background(), SuiteByName("smoke"), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if report.Suite != "smoke" || report.Scenarios != 4 || len(report.Cells) != 2 {
		t.Fatalf("report shape: %+v", report)
	}
	if report.RecoverySolves != 1 || report.ReplicationSolves != 1 {
		t.Errorf("solves = %d/%d, want 1/1 (strategy cache)",
			report.RecoverySolves, report.ReplicationSolves)
	}
	for _, c := range report.Cells {
		if c.Runs != 2 {
			t.Errorf("cell %s folded %d runs", c.Strategy, c.Runs)
		}
		if c.Availability < 0 || c.Availability > 1 {
			t.Errorf("cell %s availability %v", c.Strategy, c.Availability)
		}
	}
}

// TestRunFleetSuiteFileFacade: a built-in suite exported with SuiteJSON and
// run from the file reproduces the built-in run's report exactly.
func TestRunFleetSuiteFileFacade(t *testing.T) {
	ctx := context.Background()
	data, err := SuiteJSON(SuiteByName("smoke"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := RunSuite(ctx, SuiteFromFile(path), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := RunSuite(ctx, SuiteByName("smoke"), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, builtin) {
		t.Errorf("suite-file run differs from built-in run:\n%+v\n%+v", fromFile, builtin)
	}
}

func TestMTTFAndReliabilityFacade(t *testing.T) {
	m1, err := MTTF(20, 3, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MTTF(40, 3, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if m2 <= m1 {
		t.Errorf("MTTF not increasing: %v vs %v", m1, m2)
	}
	r, err := Reliability(25, 3, 1, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 1 || r[50] >= r[0] {
		t.Errorf("reliability curve wrong: R(0)=%v R(50)=%v", r[0], r[50])
	}
}

// table7Group returns one (N1, ΔR) row group of a table7 report, keyed by
// strategy.
func table7Group(report *FleetReport, n1, deltaR int) map[string]FleetCellMetrics {
	group := map[string]FleetCellMetrics{}
	for _, c := range report.Cells {
		if c.N1 == n1 && c.DeltaR == deltaR {
			group[c.Strategy] = c
		}
	}
	return group
}

// TestCompareTable7Shape: the N1 = 6, ΔR = 15 group of the table7 suite
// has the paper's headline shape (Table 7, Fig 12).
func TestCompareTable7Shape(t *testing.T) {
	report, err := RunSuite(context.Background(), SuiteByName("table7"),
		WithSteps(400), WithSeedsPerCell(4))
	if err != nil {
		t.Fatal(err)
	}
	byName := table7Group(report, 6, 15)
	tol := byName["TOLERANCE"]
	noRec := byName["NO-RECOVERY"]
	per := byName["PERIODIC"]
	// Absolute levels differ from the paper (our emulated intrusion rate
	// pA = 0.1 per node-step with k = 1 queues recoveries), but the
	// ordering and the order-of-magnitude T(R) gap must hold.
	if tol.Availability < 0.75 {
		t.Errorf("TOLERANCE T(A) = %v, want > 0.75", tol.Availability)
	}
	if tol.Availability < per.Availability-0.1 {
		t.Errorf("TOLERANCE T(A) = %v clearly below PERIODIC %v",
			tol.Availability, per.Availability)
	}
	if noRec.Availability > 0.5 {
		t.Errorf("NO-RECOVERY T(A) = %v, want low", noRec.Availability)
	}
	if tol.TimeToRecovery >= per.TimeToRecovery {
		t.Errorf("TOLERANCE T(R) = %v not below PERIODIC %v",
			tol.TimeToRecovery, per.TimeToRecovery)
	}
	if noRec.TimeToRecovery < 500 {
		t.Errorf("NO-RECOVERY T(R) = %v, want ~1000", noRec.TimeToRecovery)
	}
}

// TestTable7Orderings is the paper's Table 7 claim as an oracle over every
// (N1, ΔR) group of the table7 suite at a reduced budget: TOLERANCE's mean
// T(A) is above, and its mean T(R) below, every baseline's.
func TestTable7Orderings(t *testing.T) {
	report, err := RunSuite(context.Background(), SuiteByName("table7"),
		WithSteps(300), WithSeedsPerCell(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, n1 := range []int{3, 6, 9} {
		for _, deltaR := range []int{15, 25, InfiniteDeltaR} {
			group := table7Group(report, n1, deltaR)
			if len(group) != 4 {
				t.Fatalf("N1=%d ΔR=%d: %d strategies, want 4", n1, deltaR, len(group))
			}
			tol := group["TOLERANCE"]
			for name, base := range group {
				if name == "TOLERANCE" {
					continue
				}
				if tol.Availability <= base.Availability {
					t.Errorf("N1=%d ΔR=%d: TOLERANCE T(A) %.4f not above %s %.4f",
						n1, deltaR, tol.Availability, name, base.Availability)
				}
				if tol.TimeToRecovery >= base.TimeToRecovery {
					t.Errorf("N1=%d ΔR=%d: TOLERANCE T(R) %.2f not below %s %.2f",
						n1, deltaR, tol.TimeToRecovery, name, base.TimeToRecovery)
				}
			}
		}
	}
}

func TestDetectorSensitivityFacade(t *testing.T) {
	pts, err := DetectorSensitivity(DefaultNodeModel(), []float64{0.3, 0.6, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Fig 14: better detectors (higher divergence) yield lower cost.
	if !(pts[0][0] < pts[2][0]) {
		t.Errorf("divergence not increasing in separation: %v", pts)
	}
	if !(pts[0][1] > pts[2][1]) {
		t.Errorf("J* not decreasing in detector quality: %v", pts)
	}
	if _, err := DetectorSensitivity(DefaultNodeModel(), []float64{0}); err == nil {
		t.Error("zero separation should fail")
	}
}
