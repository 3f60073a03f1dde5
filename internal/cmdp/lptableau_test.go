package cmdp

// A dense two-phase primal simplex solver for linear programs in the form
//
//	minimize    c^T x
//	subject to  A_eq x  = b_eq
//	            A_le x <= b_le
//	            A_ge x >= b_ge
//	            x >= 0
//
// It solves Algorithm 2's occupancy-measure linear program (14) row by row
// in solveTableau, the differential oracle Solve is held to. The paper uses
// the CBC solver (Table 8); this tableau is an equivalent exact solver
// built only on the standard library.

import (
	"errors"
	"fmt"
	"math"
)

// lpStatus describes the outcome of a Solve call.
type lpStatus int

// Solver outcomes.
const (
	lpOptimal lpStatus = iota + 1
	lpInfeasible
	lpUnbounded
	lpIterationLimit
)

// String returns a human-readable status.
func (s lpStatus) String() string {
	switch s {
	case lpOptimal:
		return "optimal"
	case lpInfeasible:
		return "infeasible"
	case lpUnbounded:
		return "unbounded"
	case lpIterationLimit:
		return "iteration limit"
	default:
		return fmt.Sprintf("unknown(%d)", int(s))
	}
}

// Errors returned by lpProblem.Solve.
var (
	errLPInfeasible     = errors.New("lp: infeasible")
	errLPUnbounded      = errors.New("lp: unbounded")
	errLPIterationLimit = errors.New("lp: iteration limit reached")
	errLPBadProblem     = errors.New("lp: malformed problem")
)

type lpConstraint struct {
	coeffs []float64
	rhs    float64
	kind   int // 0 ==, 1 <=, 2 >=
}

// lpProblem is a linear program under construction. Create one with
// newLPProblem, add constraints, then call Solve.
type lpProblem struct {
	numVars     int
	objective   []float64
	constraints []lpConstraint
	maxIter     int
}

// newLPProblem creates a problem with the given number of non-negative
// decision variables and a zero objective.
func newLPProblem(numVars int) (*lpProblem, error) {
	if numVars < 1 {
		return nil, fmt.Errorf("%w: numVars = %d", errLPBadProblem, numVars)
	}
	return &lpProblem{
		numVars:   numVars,
		objective: make([]float64, numVars),
	}, nil
}

// SetObjective sets the minimization objective coefficients.
func (p *lpProblem) SetObjective(c []float64) error {
	if len(c) != p.numVars {
		return fmt.Errorf("%w: objective length %d, want %d", errLPBadProblem, len(c), p.numVars)
	}
	copy(p.objective, c)
	return nil
}

// SetMaxIterations overrides the simplex iteration limit (default: a bound
// proportional to problem size).
func (p *lpProblem) SetMaxIterations(n int) { p.maxIter = n }

func (p *lpProblem) addConstraint(coeffs []float64, rhs float64, kind int) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("%w: constraint length %d, want %d", errLPBadProblem, len(coeffs), p.numVars)
	}
	for i, v := range coeffs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: coeff[%d] = %v", errLPBadProblem, i, v)
		}
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("%w: rhs = %v", errLPBadProblem, rhs)
	}
	cp := make([]float64, len(coeffs))
	copy(cp, coeffs)
	p.constraints = append(p.constraints, lpConstraint{coeffs: cp, rhs: rhs, kind: kind})
	return nil
}

// AddEq adds the constraint coeffs . x = rhs.
func (p *lpProblem) AddEq(coeffs []float64, rhs float64) error {
	return p.addConstraint(coeffs, rhs, 0)
}

// AddLe adds the constraint coeffs . x <= rhs.
func (p *lpProblem) AddLe(coeffs []float64, rhs float64) error {
	return p.addConstraint(coeffs, rhs, 1)
}

// AddGe adds the constraint coeffs . x >= rhs.
func (p *lpProblem) AddGe(coeffs []float64, rhs float64) error {
	return p.addConstraint(coeffs, rhs, 2)
}

// lpSolution holds the result of a Solve call.
type lpSolution struct {
	// X is the optimal assignment of the decision variables.
	X []float64
	// Objective is c^T X.
	Objective float64
	// Status is lpOptimal on success.
	Status lpStatus
	// Iterations is the total number of simplex pivots performed.
	Iterations int
}

const pivotEps = 1e-9

// Solve runs the two-phase simplex method and returns the optimal solution,
// or an error wrapping errLPInfeasible / errLPUnbounded / errLPIterationLimit.
func (p *lpProblem) Solve() (*lpSolution, error) {
	m := len(p.constraints)
	n := p.numVars

	// Count auxiliary columns: one slack/surplus per inequality, one
	// artificial per equality or >= row (and per <= row with negative rhs
	// after normalization).
	numSlack := 0
	for _, c := range p.constraints {
		if c.kind != 0 {
			numSlack++
		}
	}

	// Column layout: [structural | slack/surplus | artificial].
	// First normalize rows so rhs >= 0.
	rows := make([][]float64, m)
	rhs := make([]float64, m)
	kinds := make([]int, m)
	for i, c := range p.constraints {
		row := make([]float64, n)
		copy(row, c.coeffs)
		r := c.rhs
		k := c.kind
		if r < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			r = -r
			switch k {
			case 1:
				k = 2
			case 2:
				k = 1
			}
		}
		rows[i] = row
		rhs[i] = r
		kinds[i] = k
	}

	// Assign slack columns and determine which rows need artificials.
	slackCol := make([]int, m) // -1 if none
	needArtificial := make([]bool, m)
	next := n
	for i := range rows {
		slackCol[i] = -1
		switch kinds[i] {
		case 0:
			needArtificial[i] = true
		case 1:
			slackCol[i] = next
			next++
		case 2:
			slackCol[i] = next
			next++
			needArtificial[i] = true
		}
	}
	artCol := make([]int, m)
	numArt := 0
	for i := range rows {
		artCol[i] = -1
		if needArtificial[i] {
			artCol[i] = next
			next++
			numArt++
		}
	}
	totalCols := next
	_ = numSlack

	// Build tableau: m rows of totalCols+1 (last column = rhs).
	t := &tableau{
		m:     m,
		n:     totalCols,
		a:     make([][]float64, m),
		b:     make([]float64, m),
		basis: make([]int, m),
	}
	for i := range rows {
		t.a[i] = make([]float64, totalCols)
		copy(t.a[i], rows[i])
		if slackCol[i] >= 0 {
			if kinds[i] == 1 {
				t.a[i][slackCol[i]] = 1
			} else {
				t.a[i][slackCol[i]] = -1 // surplus
			}
		}
		if artCol[i] >= 0 {
			t.a[i][artCol[i]] = 1
			t.basis[i] = artCol[i]
		} else {
			t.basis[i] = slackCol[i]
		}
		t.b[i] = rhs[i]
	}

	maxIter := p.maxIter
	if maxIter <= 0 {
		maxIter = 200 * (m + totalCols + 10)
	}

	iters := 0
	// Phase 1: minimize the sum of artificial variables.
	if numArt > 0 {
		phase1 := make([]float64, totalCols)
		for i := range rows {
			if artCol[i] >= 0 {
				phase1[artCol[i]] = 1
			}
		}
		it, err := t.run(phase1, maxIter)
		iters += it
		if err != nil {
			return nil, err
		}
		if t.objectiveValue(phase1) > 1e-7 {
			return nil, errLPInfeasible
		}
		// Drive any artificial variables out of the basis; rows where that is
		// impossible are redundant and removed so that later pivots cannot
		// push the artificial above zero.
		var redundant []int
		for i := 0; i < t.m; i++ {
			if t.basis[i] < totalCols-numArt {
				continue
			}
			pivoted := false
			for j := 0; j < totalCols-numArt; j++ {
				if math.Abs(t.a[i][j]) > pivotEps {
					t.pivot(i, j)
					iters++
					pivoted = true
					break
				}
			}
			if !pivoted {
				redundant = append(redundant, i)
			}
		}
		if len(redundant) > 0 {
			t.dropRows(redundant)
		}
		// Forbid artificial columns in phase 2.
		t.forbidden = totalCols - numArt
	} else {
		t.forbidden = totalCols
	}

	// Phase 2: minimize the real objective.
	obj := make([]float64, totalCols)
	copy(obj, p.objective)
	it, err := t.run(obj, maxIter-iters)
	iters += it
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = t.b[i]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.objective[j] * x[j]
	}
	return &lpSolution{X: x, Objective: objVal, Status: lpOptimal, Iterations: iters}, nil
}

// tableau is the dense simplex working state.
type tableau struct {
	m, n      int
	a         [][]float64
	b         []float64
	basis     []int
	z         []float64 // reduced-cost row for the active objective
	forbidden int       // columns >= forbidden may not enter the basis (phase 2)
}

func (t *tableau) objectiveValue(c []float64) float64 {
	v := 0.0
	for i, bv := range t.basis {
		v += c[bv] * t.b[i]
	}
	return v
}

// computeReducedCosts initializes the reduced-cost row for objective c:
// z_j = c_j - c_B^T B^{-1} A_j. With the tableau in canonical form,
// B^{-1} A_j is the stored column.
func (t *tableau) computeReducedCosts(c []float64) {
	z := make([]float64, t.n)
	copy(z, c)
	for i, bv := range t.basis {
		cb := c[bv]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			z[j] -= cb * row[j]
		}
	}
	t.z = z
}

// run performs simplex pivots minimizing objective c until optimality.
// It uses Dantzig pricing and switches to Bland's rule after a stall
// threshold to guarantee termination.
func (t *tableau) run(c []float64, maxIter int) (int, error) {
	if maxIter <= 0 {
		return 0, errLPIterationLimit
	}
	t.computeReducedCosts(c)
	defer func() { t.z = nil }()
	limit := t.forbidden
	if limit == 0 {
		limit = t.n
	}
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		// Pricing.
		enter := -1
		if iter < blandAfter {
			best := -1e-9
			for j := 0; j < limit; j++ {
				if rc := t.z[j]; rc < best {
					best = rc
					enter = j
				}
			}
		} else {
			for j := 0; j < limit; j++ {
				if t.z[j] < -1e-9 {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return iter, nil // optimal
		}
		// Ratio test (Bland tie-break on basis index for anti-cycling).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > pivotEps {
				ratio := t.b[i] / aij
				if ratio < bestRatio-1e-12 ||
					(ratio < bestRatio+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return iter, errLPUnbounded
		}
		t.pivot(leave, enter)
	}
	return maxIter, errLPIterationLimit
}

// pivot makes column j basic in row i.
func (t *tableau) pivot(i, j int) {
	pv := t.a[i][j]
	rowI := t.a[i]
	inv := 1 / pv
	for k := 0; k < t.n; k++ {
		rowI[k] *= inv
	}
	t.b[i] *= inv
	rowI[j] = 1
	for r := 0; r < t.m; r++ {
		if r == i {
			continue
		}
		f := t.a[r][j]
		if f == 0 {
			continue
		}
		row := t.a[r]
		for k := 0; k < t.n; k++ {
			row[k] -= f * rowI[k]
		}
		row[j] = 0
		t.b[r] -= f * t.b[i]
		if t.b[r] < 0 && t.b[r] > -1e-11 {
			t.b[r] = 0
		}
	}
	if t.z != nil {
		if f := t.z[j]; f != 0 {
			for k := 0; k < t.n; k++ {
				t.z[k] -= f * rowI[k]
			}
			t.z[j] = 0
		}
	}
	t.basis[i] = j
}

// dropRows removes the given (sorted ascending) row indices from the tableau.
func (t *tableau) dropRows(rows []int) {
	drop := make(map[int]bool, len(rows))
	for _, r := range rows {
		drop[r] = true
	}
	var a [][]float64
	var b []float64
	var basis []int
	for i := 0; i < t.m; i++ {
		if drop[i] {
			continue
		}
		a = append(a, t.a[i])
		b = append(b, t.b[i])
		basis = append(basis, t.basis[i])
	}
	t.a, t.b, t.basis = a, b, basis
	t.m = len(a)
}
