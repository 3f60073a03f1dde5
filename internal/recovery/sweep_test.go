package recovery

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
)

// expectWaitAll is expectWaitRows over the whole grid: the expectation the
// full-row sweeps below take.
func (d *dpSolver) expectWaitAll(w, acc []float64) {
	d.expectWaitRows(w, acc, len(d.grid))
}

// stageFull is the ladder stage before recoverFrom, kept as the oracle the
// bounded stage is held to: it takes the expectation at every grid belief
// and compares waiting with recovering on every row.
func (d *dpSolver) stageFull(u []float64, e float64) float64 {
	recoverVal := 1 + e
	d.expectWaitAll(u, d.accBuf)
	threshold := 1.0
	set := false
	for i, b := range d.grid {
		waitVal := d.p.Eta*b + d.accBuf[i]
		if recoverVal <= waitVal {
			u[i] = recoverVal
			if !set {
				threshold = b
				set = true
			}
		} else {
			u[i] = waitVal
		}
	}
	return threshold
}

// stoppingValueFull is the stationary stopping-value iteration before
// recoverFrom, kept as the oracle the bounded iteration is held to. check,
// when set, sees every sweep's iterate and its full expectation.
func (d *dpSolver) stoppingValueFull(rho float64, check func(w, acc []float64)) ([]float64, error) {
	p := d.p
	recoverVal := 1 - rho
	w, next := d.buf0, d.buf1
	if !d.warm {
		for i := range w {
			w[i] = 0
		}
	}
	for it := 0; it < d.cfg.MaxValueIterations; it++ {
		diff := 0.0
		d.expectWaitAll(w, d.accBuf)
		if check != nil {
			check(w, d.accBuf)
		}
		for i, b := range d.grid {
			waitVal := p.Eta*b - rho + d.accBuf[i]
			v := math.Min(recoverVal, waitVal)
			next[i] = v
			if dd := math.Abs(v - w[i]); dd > diff {
				diff = dd
			}
		}
		w, next = next, w
		if diff < 1e-10 {
			d.buf0, d.buf1, d.warm = w, next, true
			return w, nil
		}
	}
	return w, fmt.Errorf("%w: rho = %v", ErrDPNotConverged, rho)
}

// sweepStats counts the rows recoverFrom let a sweep skip.
type sweepStats struct{ skipped, rows int }

// checkBoundedSweeps holds the bounded sweeps to the full-row oracles on
// one model and grid:
//   - ladder: stages 1..depth run side by side on two copies of U, which
//     must stay == row for row, with == thresholds and reset expectations,
//     and every window 1..depth+1 of the solver's own ladder must be ==
//     to the oracle ladder's;
//   - stationary: SolveDPWith and the root found through the oracle
//     iteration must agree on the average cost and threshold (==) or on
//     the error text;
//   - soundness: on every oracle sweep, each row recoverFrom would skip
//     must have recoverVal <= waitVal in the full sweep.
func checkBoundedSweeps(t *testing.T, what string, p nodemodel.Params, gridSize, depth, maxIter int) (fin, stat sweepStats) {
	t.Helper()
	newSolver := func() *dpSolver {
		d := &dpSolver{p: p, cfg: DPConfig{DeltaR: InfiniteDeltaR, GridSize: gridSize, MaxValueIterations: maxIter}.withDefaults(), ar: NewArena()}
		d.prepare()
		return d
	}
	d := newSolver()
	g := len(d.grid)
	full := make([]float64, g)
	uB, uO := make([]float64, g), make([]float64, g)
	for i := range uB {
		uB[i], uO[i] = 1, 1
	}
	oracle := &Ladder{p: p, gridSize: d.cfg.GridSize, u: uO}
	for r := 1; r <= depth; r++ {
		eB, eO := d.expectReset(uB), d.expectReset(uO)
		if eB != eO {
			t.Fatalf("%s: stage %d: reset expectation %v, oracle %v", what, r, eB, eO)
		}
		recoverVal := 1 + eO
		k := d.recoverFrom(uO, 0, recoverVal, d.slack, 0)
		d.expectWaitAll(uO, full)
		for i := k; i < g; i++ {
			if waitVal := p.Eta*d.grid[i] + full[i]; !(recoverVal <= waitVal) {
				t.Fatalf("%s: stage %d skips row %d, where waiting (%v) is cheaper than recovering (%v)", what, r, i, waitVal, recoverVal)
			}
		}
		fin.skipped += g - k
		fin.rows += g
		tauB, tauO := d.stage(uB, eB), d.stageFull(uO, eO)
		if tauB != tauO || !slices.Equal(uB, uO) {
			t.Fatalf("%s: stage %d: threshold %v, oracle %v (values equal: %v)", what, r, tauB, tauO, slices.Equal(uB, uO))
		}
		oracle.tau = append(oracle.tau, tauO)
		oracle.e = append(oracle.e, eO)
	}
	oracle.e = append(oracle.e, d.expectReset(uO))
	l, err := NewLadder(p, gridSize)
	if err != nil {
		t.Fatal(err)
	}
	l.Extend(depth, nil)
	for dr := 1; dr <= depth+1; dr++ {
		sameSolution(t, fmt.Sprintf("%s: window %d", what, dr), l.window(dr), oracle.window(dr))
	}

	got, gerr := SolveDPWith(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: gridSize, MaxValueIterations: maxIter}, nil)
	// The oracle solves on o; the soundness check scans on d, because
	// recoverFrom builds its minima in the accBuf the oracle sweep reads.
	o := newSolver()
	var rho float64
	check := func(w, acc []float64) {
		top := 0.0
		for _, v := range w {
			top = max(top, math.Abs(v))
		}
		recoverVal := 1 - rho
		k := d.recoverFrom(w, -rho, recoverVal, 0, d.slack*(p.Eta+math.Abs(rho)+top))
		for i := k; i < g; i++ {
			if waitVal := p.Eta*o.grid[i] - rho + acc[i]; !(recoverVal <= waitVal) {
				t.Fatalf("%s: rho %v skips row %d, where waiting (%v) is cheaper than recovering (%v)", what, rho, i, waitVal, recoverVal)
			}
		}
		stat.skipped += g - k
		stat.rows += g
	}
	rho, w, werr := o.stationaryRoot(func(r float64) ([]float64, error) {
		rho = r
		return o.stoppingValueFull(r, check)
	})
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%s: stationary error %v, oracle %v", what, gerr, werr)
		}
	default:
		sameSolution(t, what+": stationary", got, &DPSolution{AvgCost: rho, Thresholds: []float64{o.stationaryThreshold(rho, w)}})
	}
	return fin, stat
}

// TestBoundedSweepMatchesFull holds the bounded Bellman sweeps to the
// full-row oracles with == over random models on grids of 300 and 500 —
// every window DeltaR 1..200 and the stationary root, thresholds and
// errors included — plus the edge models the parent golden covers
// (pA 0.001 and 1, pU 0, eta 20). The bound must skip rows, or the test
// would hold nothing.
func TestBoundedSweepMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	models := 6
	if testing.Short() {
		models = 2
	}
	var ps []nodemodel.Params
	for _, c := range []struct{ pa, pu, eta float64 }{{0.001, 0.02, 2}, {1, 0.02, 1}, {0.1, 0, 20}} {
		p := nodemodel.DefaultParams()
		p.PA, p.PU, p.Eta = c.pa, c.pu, c.eta
		ps = append(ps, p)
	}
	for range models {
		ps = append(ps, randomLadderModel(rng))
	}
	var fin, stat sweepStats
	for m, p := range ps {
		gridSize := []int{300, 500}[m%2]
		f, s := checkBoundedSweeps(t, fmt.Sprintf("model %d grid %d", m, gridSize), p, gridSize, 199, 1500)
		fin.skipped, fin.rows = fin.skipped+f.skipped, fin.rows+f.rows
		stat.skipped, stat.rows = stat.skipped+s.skipped, stat.rows+s.rows
	}
	t.Logf("skipped %d of %d ladder rows, %d of %d stationary rows", fin.skipped, fin.rows, stat.skipped, stat.rows)
	if fin.skipped == 0 || stat.skipped == 0 {
		t.Errorf("the bound skipped no row (ladder %d, stationary %d)", fin.skipped, stat.skipped)
	}
}

// FuzzBoundedSweepMatchesFull is TestBoundedSweepMatchesFull over arbitrary
// valid models: attack and update probabilities, eta, a beta-binomial alert
// pair of any support size up to 40, a grid of 2..200 intervals and a
// 40-stage ladder, with a capped stationary iteration so non-convergence
// is common. Inputs are folded into range rather than rejected.
func FuzzBoundedSweepMatchesFull(f *testing.F) {
	f.Add(0.1, 0.02, 2.0, 10, 0.7, 3.0, 1.0, 0.7, 100)
	f.Add(0.001, 0.0, 20.0, 3, 0.2, 0.2, 3.2, 3.2, 50)
	f.Add(1.0, 0.3, 1.0, 1, 1.0, 1.0, 1.0, 1.0, 20)
	f.Fuzz(func(t *testing.T, pa, pu, eta float64, n int, ha, hb, ca, cb float64, gridSize int) {
		unit := func(x float64) float64 {
			if x == 1 {
				return 1
			}
			return math.Mod(math.Abs(x), 1)
		}
		n = 1 + int(uint(n)%40)
		gridSize = 2 + int(uint(gridSize)%199)
		zh, err := dist.NewBetaBinomial(n, ha, hb)
		if err != nil {
			t.Skip()
		}
		zc, err := dist.NewBetaBinomial(n, ca, cb)
		if err != nil {
			t.Skip()
		}
		p := nodemodel.Params{PA: unit(pa), PC1: 1e-5, PC2: 1e-3, PU: unit(pu), Eta: 1 + math.Mod(math.Abs(eta), 50),
			ZHealthy: zh.Categorical(), ZCompromised: zc.Categorical()}
		if p.Validate() != nil {
			t.Skip()
		}
		checkBoundedSweeps(t, fmt.Sprintf("pA=%v pU=%v eta=%v n=%d grid=%d", p.PA, p.PU, p.Eta, n, gridSize), p, gridSize, 40, 300)
	})
}
