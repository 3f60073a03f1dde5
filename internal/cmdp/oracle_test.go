package cmdp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// solveTableau is Solve as it was before the policy-space simplex: the
// occupancy-measure LP (14) written out row by row — 2(smax+1) variables,
// a dense stationarity row per state — and handed to the two-phase tableau
// of lptableau_test.go. It is the differential oracle Solve is held to.
func solveTableau(m *Model) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.SMax + 1
	numVars := n * NumActions
	idx := func(s, a int) int { return s*NumActions + a }

	prob, err := newLPProblem(numVars)
	if err != nil {
		return nil, err
	}
	// (14a): minimize sum_s sum_a s * rho(s, a).
	obj := make([]float64, numVars)
	for s := 0; s < n; s++ {
		for a := 0; a < NumActions; a++ {
			obj[idx(s, a)] = float64(s)
		}
	}
	if err := prob.SetObjective(obj); err != nil {
		return nil, err
	}
	// (14c): normalization.
	one := make([]float64, numVars)
	for i := range one {
		one[i] = 1
	}
	if err := prob.AddEq(one, 1); err != nil {
		return nil, err
	}
	// (14d): stationarity. One row per state s (skip s = 0: the rows sum to
	// the normalization constraint, so one is redundant).
	for s := 1; s < n; s++ {
		row := make([]float64, numVars)
		for a := 0; a < NumActions; a++ {
			row[idx(s, a)] += 1
		}
		for s2 := 0; s2 < n; s2++ {
			for a := 0; a < NumActions; a++ {
				row[idx(s2, a)] -= m.FS[a][s2][s]
			}
		}
		if err := prob.AddEq(row, 0); err != nil {
			return nil, err
		}
	}
	// (14e): availability.
	avail := make([]float64, numVars)
	for s := m.F + 1; s < n; s++ {
		for a := 0; a < NumActions; a++ {
			avail[idx(s, a)] = 1
		}
	}
	if err := prob.AddGe(avail, m.EpsilonA); err != nil {
		return nil, err
	}

	sol, err := prob.Solve()
	if err != nil {
		if errors.Is(err, errLPInfeasible) {
			return nil, fmt.Errorf("%w: epsilonA = %v with f = %d, smax = %d",
				ErrInfeasible, m.EpsilonA, m.F, m.SMax)
		}
		return nil, fmt.Errorf("cmdp: algorithm 2: %w", err)
	}

	out := &Solution{
		Policy:    make([]float64, n),
		Occupancy: make([]float64, NumActions*n),
	}
	availability := 0.0
	avgNodes := 0.0
	for s := 0; s < n; s++ {
		occ := out.Occupancy[NumActions*s : NumActions*(s+1)]
		occ[0], occ[1] = sol.X[idx(s, 0)], sol.X[idx(s, 1)]
		total := occ[0] + occ[1]
		if total > 1e-7 {
			out.Policy[s] = occ[1] / total
		} else if s <= m.F {
			out.Policy[s] = 1
		} else {
			out.Policy[s] = 0
		}
		avgNodes += float64(s) * total
		if s >= m.F+1 {
			availability += total
		}
	}
	out.AvgNodes = avgNodes
	out.Availability = availability
	return out, nil
}

// stationarityResidual is how far an occupancy measure is from the
// feasible set of (14) short of the availability row: the largest of
// max_s |sum_a rho(s,a) − sum_{s',a} rho(s',a) fS(s|s',a)| (14d),
// |sum rho − 1| (14c) and the most negative rho(s,a) (14b). A tableau that
// pivots on a near-zero element can leave rho(s,a) ≈ −1e-7 while every
// balance row holds to 1e-15; that point is outside (14), and its objective
// is not comparable to 1e-9.
func stationarityResidual(m *Model, occ []float64) float64 {
	n := m.SMax + 1
	worst, total := 0.0, 0.0
	for s := 0; s < n; s++ {
		worst = math.Max(worst, -min(occ[2*s], occ[2*s+1]))
		in := 0.0
		for s2 := 0; s2 < n; s2++ {
			for a := 0; a < NumActions; a++ {
				in += occ[NumActions*s2+a] * m.FS[a][s2][s]
			}
		}
		out := occ[2*s] + occ[2*s+1]
		total += out
		worst = math.Max(worst, math.Abs(in-out))
	}
	return math.Max(worst, math.Abs(total-1))
}

// Tolerances of the differential check (and of the golden solver file's LP
// entries).
const (
	// policyTolerance bounds |Δπ(a=1|s)| in every state whose two actions
	// are not tied, i.e. whose f_S rows differ by more than tieTolerance in
	// some entry. At a tie (the top state once smax·(1−q) is ~1e-8, and
	// exactly at q = 1) either action is optimal.
	policyTolerance = 1e-6
	tieTolerance    = 1e-6
	// oracleExactResidual is the stationarityResidual up to which the
	// oracle's numbers are compared at all; past it, the new solver must
	// have the smaller residual.
	oracleExactResidual = 1e-12
	// ownResidual bounds the new solver's stationarityResidual and its
	// shortfall against epsilonA.
	ownResidual = 1e-12
)

// valueTolerance bounds |ΔAvgNodes| and |ΔAvailability| against an oracle
// that is stationary to oracleExactResidual. Both solvers reach the same
// vertex of (14) only to within the conditioning of its basis, which grows
// with the chain's mixing time: a node is lost about once per 1/(1−q)
// steps, and at q = 1 only the 1e-9 smoothing moves the chain. Over q =
// 1 − 10^−k, k = 2…9 (2 400 random models) the gap stayed below 0.66 ×
// 1e-13/(1−q); below k ≈ 4 the 1e-9 floor governs.
func valueTolerance(q float64) float64 { return 1e-9 + 2e-13/max(1-q, 1e-9) }

// checkAgainstOracle solves the binomial model m (survival probability q)
// both ways and reports every way the two disagree, plus the structural
// properties an optimum of (14) found by a simplex must have whatever the
// oracle says: availability at least epsilonA, stationarity to rounding,
// randomization in at most one state, and an add region that is one
// contiguous block of states. It returns the solver's error.
func checkAgainstOracle(t *testing.T, name string, m *Model, q float64) error {
	t.Helper()
	got, err := Solve(m)
	want, werr := solveTableau(m)
	if (err == nil) != (werr == nil) {
		// The tableau's phase 1 accepts a shortfall of up to 1e-7, so a
		// model whose best availability is just under epsilonA is feasible
		// to it, and its optimum then misses epsilonA or stationarity.
		if errors.Is(err, ErrInfeasible) && (want.Availability < m.EpsilonA-ownResidual ||
			stationarityResidual(m, want.Occupancy) > oracleExactResidual) {
			return err
		}
		t.Errorf("%s: feasibility differs: solver err %v, oracle err %v", name, err, werr)
		return err
	}
	if err != nil {
		if !errors.Is(err, ErrInfeasible) || err.Error() != werr.Error() {
			t.Errorf("%s: solver err %q, oracle err %q", name, err, werr)
		}
		return err
	}
	compareSolutions(t, name, m, q, got, want)
	return nil
}

// compareSolutions holds the solver's solution got of the binomial model m
// (survival probability q) to the oracle's want: checkStructure, then the
// policy and values where the oracle is stationary to oracleExactResidual,
// and a smaller residual than the oracle's elsewhere.
func compareSolutions(t *testing.T, name string, m *Model, q float64, got, want *Solution) {
	t.Helper()
	checkStructure(t, name, m, got)
	gotRes, wantRes := stationarityResidual(m, got.Occupancy), stationarityResidual(m, want.Occupancy)
	if wantRes > oracleExactResidual {
		if gotRes > wantRes {
			t.Errorf("%s: stationarity residual %g, oracle %g", name, gotRes, wantRes)
		}
		return
	}
	for s := range got.Policy {
		if d := math.Abs(got.Policy[s] - want.Policy[s]); d > policyTolerance && !tied(m, s) {
			t.Errorf("%s: pi(1|%d) = %v, oracle %v", name, s, got.Policy[s], want.Policy[s])
		}
	}
	tol := valueTolerance(q)
	if d := math.Abs(got.AvgNodes - want.AvgNodes); d > tol {
		t.Errorf("%s: AvgNodes %v, oracle %v (|Δ| = %g > %g)", name, got.AvgNodes, want.AvgNodes, d, tol)
	}
	if d := math.Abs(got.Availability - want.Availability); d > tol {
		t.Errorf("%s: Availability %v, oracle %v (|Δ| = %g > %g)", name, got.Availability, want.Availability, d, tol)
	}
}

// tied reports whether the two actions' f_S rows in state s are within
// tieTolerance of each other.
func tied(m *Model, s int) bool {
	for j, p := range m.FS[0][s] {
		if math.Abs(m.FS[1][s][j]-p) > tieTolerance {
			return false
		}
	}
	return true
}

// checkStructure checks the properties of a solution that do not need the
// oracle.
func checkStructure(t *testing.T, name string, m *Model, sol *Solution) {
	t.Helper()
	if sol.Availability < m.EpsilonA-ownResidual {
		t.Errorf("%s: availability %v below epsilonA %v", name, sol.Availability, m.EpsilonA)
	}
	if r := stationarityResidual(m, sol.Occupancy); r > ownResidual {
		t.Errorf("%s: stationarity residual %g", name, r)
	}
	// The add region is counted over visited states only: an unvisited
	// state's policy is Solve's "add iff s <= f" default, not the optimum's.
	const tol = 1e-6
	fractional, blocks, adding := 0, 0, false
	for s, p := range sol.Policy {
		if sol.Occupancy[2*s]+sol.Occupancy[2*s+1] <= 1e-7 {
			continue
		}
		if p > tol && p < 1-tol {
			fractional++
		}
		if p > tol && !adding {
			blocks++
		}
		adding = p > tol
	}
	if fractional > 1 || blocks > 1 {
		t.Errorf("%s: randomizes in %d states, adds in %d blocks: %v", name, fractional, blocks, sol.Policy)
	}
}

// TestSolveMatchesTableauOnSolveCold holds the solver to the oracle on the
// benchmark's solve-cold list: smax x epsilonA x f at q = 0.95.
func TestSolveMatchesTableauOnSolveCold(t *testing.T) {
	for _, smax := range []int{13, 24, 32, 48, 64, 80, 96, 112, 128} {
		for _, eps := range []float64{0.8, 0.85, 0.9, 0.95, 0.99} {
			for _, f := range []int{1, 2, 3, 4} {
				m := mustBinomialModel(t, smax, f, eps, 0.95)
				checkAgainstOracle(t, fmt.Sprintf("smax=%d/eps=%v/f=%d", smax, eps, f), m, 0.95)
			}
		}
	}
}

// TestSolveMatchesTableauOnRandomModels is the random-parameter oracle:
// q uniform on (0, 1) for half of the models and on (0.9, 1), where most
// feasible replication problems live, for the other half; smax up to 128,
// f up to smax/2 (a replicated service needs at least 2f+1 nodes) and
// epsilonA uniform on (0, 1).
func TestSolveMatchesTableauOnRandomModels(t *testing.T) {
	count := 1500
	if testing.Short() || raceEnabled {
		count = 30
	}
	rng := rand.New(rand.NewSource(27))
	infeasible := 0
	for i := 0; i < count; i++ {
		smax := 1 + rng.Intn(128)
		f := rng.Intn(smax/2 + 1)
		q := rng.Float64()
		if i%2 == 1 {
			q = 1 - 0.1*q
		}
		eps := rng.Float64()
		m, err := NewBinomialModel(smax, f, eps, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainstOracle(t, fmt.Sprintf("smax=%d/f=%d/q=%v/eps=%v", smax, f, q, eps), m, q); err != nil {
			infeasible++
		}
	}
	// Both verdicts must be exercised for the check to mean anything.
	if infeasible == 0 || infeasible == count {
		t.Errorf("%d of %d random models infeasible", infeasible, count)
	}
	t.Logf("%d of %d random models infeasible", infeasible, count)
}

// FuzzSolveMatchesLP compares the policy-space simplex with the tableau
// oracle on arbitrary binomial models. Inputs NewBinomialModel rejects must
// be rejected with ErrInvalidModel.
func FuzzSolveMatchesLP(f *testing.F) {
	f.Fuzz(func(t *testing.T, smax, fTol int, q, eps float64) {
		if smax < 1 || smax > 128 || fTol < 0 || fTol >= smax {
			t.Skip()
		}
		m, err := NewBinomialModel(smax, fTol, eps, q, 0)
		if err != nil {
			if !errors.Is(err, ErrInvalidModel) {
				t.Fatalf("NewBinomialModel: %v", err)
			}
			return
		}
		checkAgainstOracle(t, fmt.Sprintf("smax=%d/f=%d/q=%v/eps=%v", smax, fTol, q, eps), m, q)
	})
}
