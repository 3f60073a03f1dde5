package cmdp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustLPProblem(t *testing.T, n int) *lpProblem {
	t.Helper()
	p, err := newLPProblem(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLPSolveBasicMaximization(t *testing.T) {
	// max x + y  s.t. x + y <= 4, x <= 2  ==> min -(x+y), optimum 4 at (2,2).
	p := mustLPProblem(t, 2)
	if err := p.SetObjective([]float64{-1, -1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{1, 1}, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-4)) > 1e-9 {
		t.Errorf("objective = %v, want -4", sol.Objective)
	}
	if math.Abs(sol.X[0]+sol.X[1]-4) > 1e-9 {
		t.Errorf("x = %v, want sum 4", sol.X)
	}
}

func TestLPSolveEqualitySimplex(t *testing.T) {
	// min c.x over the probability simplex picks the smallest coefficient.
	p := mustLPProblem(t, 4)
	if err := p.SetObjective([]float64{3, 1, 2, 5}); err != nil {
		t.Fatal(err)
	}
	one := []float64{1, 1, 1, 1}
	if err := p.AddEq(one, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-9 {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
	if math.Abs(sol.X[1]-1) > 1e-9 {
		t.Errorf("x = %v, want e_1", sol.X)
	}
}

func TestLPSolveGeConstraint(t *testing.T) {
	// min x  s.t. x >= 3.5.
	p := mustLPProblem(t, 1)
	if err := p.SetObjective([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGe([]float64{1}, 3.5); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-3.5) > 1e-9 {
		t.Errorf("x = %v, want 3.5", sol.X[0])
	}
}

func TestLPSolveNegativeRHS(t *testing.T) {
	// -x <= -2 is x >= 2.
	p := mustLPProblem(t, 1)
	if err := p.SetObjective([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{-1}, -2); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 {
		t.Errorf("x = %v, want 2", sol.X[0])
	}
}

func TestLPSolveInfeasible(t *testing.T) {
	p := mustLPProblem(t, 1)
	if err := p.AddGe([]float64{1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	_, err := p.Solve()
	if !errors.Is(err, errLPInfeasible) {
		t.Errorf("err = %v, want errLPInfeasible", err)
	}
}

func TestLPSolveUnbounded(t *testing.T) {
	p := mustLPProblem(t, 2)
	if err := p.SetObjective([]float64{-1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGe([]float64{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	_, err := p.Solve()
	if !errors.Is(err, errLPUnbounded) {
		t.Errorf("err = %v, want errLPUnbounded", err)
	}
}

func TestLPSolveDegenerate(t *testing.T) {
	// Classic degenerate problem; must terminate (anti-cycling).
	p := mustLPProblem(t, 3)
	if err := p.SetObjective([]float64{-0.75, 150, -0.02}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{0.25, -60, -0.04}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{0.5, -90, -0.02}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{0, 0, 1}, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Known optimum of this Beale-style instance: objective -0.05 is not the
	// classic one (we perturbed it); just require finite termination with a
	// feasible solution.
	if sol.Status != lpOptimal {
		t.Errorf("status = %v", sol.Status)
	}
}

func TestLPSolveRedundantEqualities(t *testing.T) {
	// x + y = 1 stated twice: a redundant row exercises the driven-out
	// artificial path.
	p := mustLPProblem(t, 2)
	if err := p.SetObjective([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEq([]float64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEq([]float64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-9 || math.Abs(sol.X[0]-1) > 1e-9 {
		t.Errorf("sol = %+v, want x=(1,0)", sol)
	}
}

func TestLPProblemValidation(t *testing.T) {
	if _, err := newLPProblem(0); err == nil {
		t.Error("newLPProblem(0) should fail")
	}
	p := mustLPProblem(t, 2)
	if err := p.SetObjective([]float64{1}); err == nil {
		t.Error("wrong objective length should fail")
	}
	if err := p.AddEq([]float64{1}, 0); err == nil {
		t.Error("wrong constraint length should fail")
	}
	if err := p.AddLe([]float64{math.NaN(), 0}, 0); err == nil {
		t.Error("NaN coefficient should fail")
	}
	if err := p.AddGe([]float64{1, 0}, math.Inf(1)); err == nil {
		t.Error("infinite rhs should fail")
	}
}

func TestLPStatusString(t *testing.T) {
	for s, want := range map[lpStatus]string{
		lpOptimal:        "optimal",
		lpInfeasible:     "infeasible",
		lpUnbounded:      "unbounded",
		lpIterationLimit: "iteration limit",
		lpStatus(99):     "unknown(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("lpStatus(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// Property: for the fractional allocation LP
//
//	min c.x  s.t.  sum x = S,  x_i <= u_i,  x >= 0
//
// the optimum equals the greedy fill of cheapest coefficients first.
func TestLPSolveMatchesGreedyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		c := make([]float64, n)
		u := make([]float64, n)
		totalCap := 0.0
		for i := 0; i < n; i++ {
			c[i] = math.Round(r.Float64()*100) / 10
			u[i] = math.Round(r.Float64()*50)/10 + 0.1
			totalCap += u[i]
		}
		s := totalCap * (0.2 + 0.6*r.Float64())

		// Greedy optimum.
		type item struct{ cost, cap float64 }
		items := make([]item, n)
		for i := 0; i < n; i++ {
			items[i] = item{c[i], u[i]}
		}
		sort.Slice(items, func(a, b int) bool { return items[a].cost < items[b].cost })
		remaining := s
		want := 0.0
		for _, it := range items {
			take := math.Min(remaining, it.cap)
			want += take * it.cost
			remaining -= take
			if remaining <= 0 {
				break
			}
		}

		p, err := newLPProblem(n)
		if err != nil {
			return false
		}
		if err := p.SetObjective(c); err != nil {
			return false
		}
		one := make([]float64, n)
		for i := range one {
			one[i] = 1
		}
		if err := p.AddEq(one, s); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			row[i] = 1
			if err := p.AddLe(row, u[i]); err != nil {
				return false
			}
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		return math.Abs(sol.Objective-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: solutions are primal feasible.
func TestLPSolutionFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		m := 1 + r.Intn(4)
		p, err := newLPProblem(n)
		if err != nil {
			return false
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = r.Float64()*4 - 1
		}
		if err := p.SetObjective(c); err != nil {
			return false
		}
		type row struct {
			coeffs []float64
			rhs    float64
		}
		var rowsLe []row
		for k := 0; k < m; k++ {
			coeffs := make([]float64, n)
			for i := range coeffs {
				coeffs[i] = r.Float64() // non-negative rows + bounded box
			}
			rhs := r.Float64()*10 + 1
			rowsLe = append(rowsLe, row{coeffs, rhs})
			if err := p.AddLe(coeffs, rhs); err != nil {
				return false
			}
		}
		// Bounding box keeps the LP bounded.
		for i := 0; i < n; i++ {
			coeffs := make([]float64, n)
			coeffs[i] = 1
			rowsLe = append(rowsLe, row{coeffs, 20})
			if err := p.AddLe(coeffs, 20); err != nil {
				return false
			}
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		for _, rw := range rowsLe {
			lhs := 0.0
			for i := range rw.coeffs {
				lhs += rw.coeffs[i] * sol.X[i]
			}
			if lhs > rw.rhs+1e-7 {
				return false
			}
		}
		for _, x := range sol.X {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLPSetMaxIterations(t *testing.T) {
	p := mustLPProblem(t, 2)
	if err := p.SetObjective([]float64{-1, -1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLe([]float64{1, 1}, 4); err != nil {
		t.Fatal(err)
	}
	p.SetMaxIterations(1)
	// With one iteration allowed the solver may or may not finish; it must
	// either return optimal or errLPIterationLimit, never hang.
	if _, err := p.Solve(); err != nil && !errors.Is(err, errLPIterationLimit) {
		t.Errorf("unexpected error: %v", err)
	}
}
