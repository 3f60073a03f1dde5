package cmdp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

func mustBinomialModel(t *testing.T, smax, f int, epsA, q float64) *Model {
	t.Helper()
	m, err := NewBinomialModel(smax, f, epsA, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewBinomialModelValid(t *testing.T) {
	m := mustBinomialModel(t, 13, 1, 0.9, 0.95)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := m.CheckTheorem2Assumptions()
	if err != nil {
		t.Fatal(err)
	}
	// B (positivity, via smoothing) and C (stochastic monotonicity) hold
	// for the binomial kernel; D (tail-sum supermodularity) is known not to
	// hold exactly for binomial kernels — the paper's remark after Alg. 2
	// covers this case (the LP remains correct without Thm 2).
	if !rep.B {
		t.Errorf("assumption B should hold: %v", rep.Detail["B"])
	}
	if !rep.C {
		t.Errorf("assumption C should hold: %v", rep.Detail["C"])
	}
	if rep.D {
		t.Log("assumption D unexpectedly holds (not required)")
	}
	if rep.AllHold() != (rep.B && rep.C && rep.D) {
		t.Error("AllHold inconsistent")
	}
}

// newBinomialModelPerEntry is NewBinomialModel as it was before the pmf
// rows were shared: every entry of every action priced by its own
// dist.Binomial call. It is the oracle the shared rows are held to.
func newBinomialModelPerEntry(smax, f int, epsilonA, q, eps float64) *Model {
	if eps <= 0 {
		eps = 1e-9
	}
	n := smax + 1
	m := &Model{SMax: smax, F: f, EpsilonA: epsilonA}
	m.FS = make([][][]float64, NumActions)
	for a := 0; a < NumActions; a++ {
		m.FS[a] = make([][]float64, n)
		for s := 0; s <= smax; s++ {
			row := make([]float64, n)
			for k := 0; k <= s; k++ {
				target := k + a
				if target > smax {
					target = smax
				}
				row[target] += dist.Binomial(s, q, k)
			}
			total := 0.0
			for i := range row {
				row[i] += eps
				total += row[i]
			}
			for i := range row {
				row[i] /= total
			}
			m.FS[a][s] = row
		}
	}
	return m
}

// TestBinomialModelMatchesPerEntryOracle: the shared pmf rows reproduce the
// per-entry kernel bit for bit — the boundary q values, a q next to each of
// them and random ones, small and large state spaces, default and explicit
// smoothing — and so do the Fig 6 chain's rows.
func TestBinomialModelMatchesPerEntryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 1e-12, 1e-6, 0.5, 0.95, 1 - 1e-9, 1}
	for i := 0; i < 8; i++ {
		qs = append(qs, rng.Float64())
	}
	for _, smax := range []int{1, 2, 3, 13, 40, 128} {
		for _, q := range qs {
			for _, eps := range []float64{0, 1e-6} {
				got, err := NewBinomialModel(smax, 0, 0.9, q, eps)
				if err != nil {
					t.Fatalf("smax=%d q=%v: %v", smax, q, err)
				}
				want := newBinomialModelPerEntry(smax, 0, 0.9, q, eps)
				for a := range want.FS {
					for s := range want.FS[a] {
						for k, w := range want.FS[a][s] {
							if g := got.FS[a][s][k]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("smax=%d q=%v eps=%v: fS(%d|%d,%d) = %v, per-entry %v", smax, q, eps, k, s, a, g, w)
							}
						}
					}
				}
			}
			chain, err := noRecoveryChain(smax, q)
			if err != nil {
				t.Fatalf("chain n=%d q=%v: %v", smax, q, err)
			}
			for s := 0; s <= smax; s++ {
				sum := 0.0
				for k := 0; k <= s; k++ {
					sum += dist.Binomial(s, q, k)
				}
				for k := 0; k <= smax; k++ {
					want := 0.0
					if k <= s {
						want = dist.Binomial(s, q, k) / sum
					}
					if g := chain[s][k]; math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("chain n=%d q=%v: P(%d -> %d) = %v, per-entry %v", smax, q, s, k, g, want)
					}
				}
			}
		}
	}
}

func TestNewBinomialModelValidation(t *testing.T) {
	if _, err := NewBinomialModel(10, 1, 0.9, 1.5, 0); err == nil {
		t.Error("q > 1 should fail")
	}
	if _, err := NewBinomialModel(0, 0, 0.9, 0.9, 0); err == nil {
		t.Error("smax = 0 should fail")
	}
	if _, err := NewBinomialModel(-5, 0, 0.9, 0.9, 0); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("smax = -5: err %v, want ErrInvalidModel", err)
	}
	if _, err := NewBinomialModel(10, 10, 0.9, 0.9, 0); err == nil {
		t.Error("f >= smax should fail")
	}
}

func TestModelValidateRejectsBadFS(t *testing.T) {
	m := mustBinomialModel(t, 5, 1, 0.9, 0.9)
	m.FS[0][2][3] += 0.5
	if err := m.Validate(); err == nil {
		t.Error("non-stochastic row should fail")
	}
}

func TestTransitionShapeFig16(t *testing.T) {
	// Fig 16: rows of fS are unimodal with mode at/below the current state
	// (nodes are lost at rate 1-q).
	m := mustBinomialModel(t, 25, 3, 0.9, 0.9)
	for _, s := range []int{10, 20} {
		row := m.FS[0][s]
		mode := 0
		for i, p := range row {
			if p > row[mode] {
				mode = i
			}
		}
		if mode > s {
			t.Errorf("mode of fS(.|%d,0) = %d, want <= %d", s, mode, s)
		}
		if mode < s-5 {
			t.Errorf("mode of fS(.|%d,0) = %d, too far below %d for q=0.9", s, mode, s)
		}
	}
	// Action 1 shifts the distribution up by one.
	s := 10
	m0 := expectedNext(m.FS[0][s])
	m1 := expectedNext(m.FS[1][s])
	if math.Abs((m1-m0)-1) > 0.05 {
		t.Errorf("adding a node shifts the mean by %v, want ~1", m1-m0)
	}
}

func expectedNext(row []float64) float64 {
	e := 0.0
	for s, p := range row {
		e += float64(s) * p
	}
	return e
}

func TestSolveSmallInstance(t *testing.T) {
	// Paper's Fig 9/13 scale: f = 3, epsA = 0.9.
	m := mustBinomialModel(t, 13, 3, 0.9, 0.95)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	// Availability constraint satisfied.
	if sol.Availability < m.EpsilonA-1e-6 {
		t.Errorf("availability = %v, want >= %v", sol.Availability, m.EpsilonA)
	}
	// The objective keeps the system as small as the constraint allows:
	// must exceed f+1 but stay well below smax.
	if sol.AvgNodes < float64(m.F) || sol.AvgNodes > float64(m.SMax) {
		t.Errorf("avg nodes = %v out of range", sol.AvgNodes)
	}
}

func TestSolveThresholdStructureTheorem2(t *testing.T) {
	// With a tight availability bound the system cannot lounge in
	// unavailable states, and the LP optimum exhibits the Theorem 2 shape:
	// a monotone mixture of at most two threshold strategies.
	m := mustBinomialModel(t, 13, 1, 0.995, 0.95)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	okStruct, lastAdd := sol.ThresholdStructure()
	if !okStruct {
		t.Errorf("policy is not a two-threshold mixture (Thm 2): %v", sol.Policy)
	}
	if lastAdd < 0 {
		t.Error("policy never adds nodes")
	}
	// Low states must add with certainty (they violate availability).
	if sol.ActionProb(0) < 0.99 {
		t.Errorf("pi(1|0) = %v, want ~1", sol.ActionProb(0))
	}
	// The top state should not add.
	if sol.ActionProb(m.SMax) > 0.5 {
		t.Errorf("pi(1|smax) = %v, want small", sol.ActionProb(m.SMax))
	}
}

func TestSolveRandomizesInAtMostOneState(t *testing.T) {
	// CMDP theory (one constraint): some optimal stationary strategy
	// randomizes in at most one state, and the LP's basic optimal solution
	// inherits this. With a loose availability bound the policy may not be
	// monotone (lounging in cheap unavailable states is optimal), but the
	// single-randomization and contiguous-add-region structure must hold.
	m := mustBinomialModel(t, 13, 1, 0.9, 0.95)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-6
	fractional := 0
	for _, p := range sol.Policy {
		if p > tol && p < 1-tol {
			fractional++
		}
	}
	if fractional > 1 {
		t.Errorf("policy randomizes in %d states, want <= 1: %v", fractional, sol.Policy)
	}
	// The add region (states with pi > 0) is a contiguous prefix-interval.
	inRegion := false
	ended := false
	for s, p := range sol.Policy {
		add := p > tol
		if add && ended {
			t.Errorf("add region not contiguous at s=%d: %v", s, sol.Policy)
			break
		}
		if inRegion && !add {
			ended = true
		}
		if add {
			inRegion = true
		}
	}
}

func TestSolveTighterAvailabilityCostsMore(t *testing.T) {
	q := 0.93
	m1 := mustBinomialModel(t, 15, 2, 0.8, q)
	m2 := mustBinomialModel(t, 15, 2, 0.99, q)
	s1, err := Solve(m1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Solve(m2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.AvgNodes < s1.AvgNodes-1e-6 {
		t.Errorf("tighter availability should need more nodes: %v vs %v",
			s2.AvgNodes, s1.AvgNodes)
	}
}

// TestSolveAllocationsIndependentOfSize: Solve allocates the Solution, one
// slab for Policy and the Occupancy rows, the row headers, and the
// evaluator's float and int scratch — five allocations at any smax (the
// tableau made 100 at smax 13 and 679 at smax 128).
func TestSolveAllocationsIndependentOfSize(t *testing.T) {
	const bound = 5
	allocs := map[int]float64{}
	for _, smax := range []int{13, 128} {
		m := mustBinomialModel(t, smax, 2, 0.9, 0.95)
		allocs[smax] = testing.AllocsPerRun(10, func() {
			if _, err := Solve(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[13] != allocs[128] || allocs[128] > bound {
		t.Errorf("Solve allocates %v at smax 13 and %v at smax 128, want the same count <= %d",
			allocs[13], allocs[128], bound)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// With q = 0.05 nodes die almost every step; 0.999 availability with
	// f = 8 of smax = 10 is unattainable.
	m := mustBinomialModel(t, 10, 8, 0.999, 0.05)
	_, err := Solve(m)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveValidatesModel(t *testing.T) {
	m := &Model{SMax: 0}
	if _, err := Solve(m); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestSampleFollowsPolicy(t *testing.T) {
	m := mustBinomialModel(t, 10, 1, 0.9, 0.9)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	count := 0
	for i := 0; i < n; i++ {
		count += sol.Sample(rng, 0)
	}
	got := float64(count) / n
	if math.Abs(got-sol.ActionProb(0)) > 0.02 {
		t.Errorf("empirical action prob %v, want %v", got, sol.ActionProb(0))
	}
	// Clamping.
	if sol.ActionProb(-5) != sol.ActionProb(0) || sol.ActionProb(99) != sol.ActionProb(10) {
		t.Error("ActionProb clamping broken")
	}
}

func TestMTTFIncreasingInN1(t *testing.T) {
	// Fig 6a: MTTF grows with the initial number of nodes and shrinks
	// with pA.
	q1 := (1 - 0.1) * (1 - 1e-5)
	q2 := (1 - 0.01) * (1 - 1e-5)
	var prev float64
	for i, n1 := range []int{10, 20, 40, 80} {
		mttf, err := MTTF(n1, 3, 1, q1)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && mttf <= prev {
			t.Errorf("MTTF(%d) = %v not increasing (prev %v)", n1, mttf, prev)
		}
		prev = mttf
	}
	mHigh, err := MTTF(40, 3, 1, q1)
	if err != nil {
		t.Fatal(err)
	}
	mLow, err := MTTF(40, 3, 1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if mLow <= mHigh {
		t.Errorf("smaller pA should give larger MTTF: %v vs %v", mLow, mHigh)
	}
}

func TestReliabilityCurvesFig6b(t *testing.T) {
	q := (1 - 0.05) * (1 - 1e-5)
	r25, err := Reliability(25, 3, 1, 60, q)
	if err != nil {
		t.Fatal(err)
	}
	r100, err := Reliability(100, 3, 1, 60, q)
	if err != nil {
		t.Fatal(err)
	}
	if r25[0] != 1 || r100[0] != 1 {
		t.Error("R(0) must be 1")
	}
	for tt := 1; tt <= 60; tt++ {
		if r25[tt] > r25[tt-1]+1e-12 {
			t.Fatalf("R25 increased at %d", tt)
		}
	}
	// Larger systems are more reliable at every horizon (Fig 6b ordering).
	if r100[40] <= r25[40] {
		t.Errorf("R100(40) = %v should exceed R25(40) = %v", r100[40], r25[40])
	}
}

func TestEstimateHealthyProb(t *testing.T) {
	p := nodemodel.DefaultParams()
	rng := rand.New(rand.NewSource(3))
	s := &recovery.ThresholdStrategy{Thresholds: []float64{0.3}, DeltaR: recovery.InfiniteDeltaR}
	q, err := EstimateHealthyProb(rng, p, s, 50, 200, recovery.InfiniteDeltaR)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.5 || q > 1 {
		t.Errorf("q = %v, want high healthy probability under feedback recovery", q)
	}
	// Without recovery the healthy probability collapses.
	rng = rand.New(rand.NewSource(3))
	qNever, err := EstimateHealthyProb(rng, p, recovery.NeverRecover{}, 50, 200, recovery.InfiniteDeltaR)
	if err != nil {
		t.Fatal(err)
	}
	if qNever >= q {
		t.Errorf("no-recovery q = %v should be below feedback q = %v", qNever, q)
	}
}

// Property: the LP solution is a valid occupancy measure: non-negative,
// sums to one, and satisfies stationarity.
func TestOccupancyMeasureProperty(t *testing.T) {
	f := func(fRaw, qRaw uint8) bool {
		fTol := 1 + int(fRaw)%3
		q := 0.85 + float64(qRaw)/256*0.14
		m, err := NewBinomialModel(12, fTol, 0.85, q, 0)
		if err != nil {
			return false
		}
		sol, err := Solve(m)
		if err != nil {
			// Feasibility depends on q; infeasibility is acceptable.
			return errors.Is(err, ErrInfeasible)
		}
		total := 0.0
		for s := range sol.Occupancy {
			for _, v := range sol.Occupancy[s] {
				if v < -1e-9 {
					return false
				}
				total += v
			}
		}
		if math.Abs(total-1) > 1e-6 {
			return false
		}
		// Stationarity: inflow = outflow per state.
		n := m.SMax + 1
		for s := 0; s < n; s++ {
			out := sol.Occupancy[s][0] + sol.Occupancy[s][1]
			in := 0.0
			for s2 := 0; s2 < n; s2++ {
				for a := 0; a < NumActions; a++ {
					in += sol.Occupancy[s2][a] * m.FS[a][s2][s]
				}
			}
			if math.Abs(in-out) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
