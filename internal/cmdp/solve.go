package cmdp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Solution is the optimal replication strategy computed by Algorithm 2.
type Solution struct {
	// Policy[s] is pi*(a = 1 | s), the probability of adding a node in
	// state s (eq. 13, Fig 13a).
	Policy []float64
	// Occupancy is the optimal occupancy measure rho*(s, a) indexed [s][a].
	Occupancy [][]float64
	// AvgNodes is the objective value J (eq. 9): the stationary expected
	// number of nodes.
	AvgNodes float64
	// Availability is the achieved stationary P[s >= f+1] (eq. 10b).
	Availability float64
}

// ActionProb returns pi*(a = 1 | s), clamping s to the state space.
func (sol *Solution) ActionProb(s int) float64 {
	if s < 0 {
		s = 0
	}
	if s >= len(sol.Policy) {
		s = len(sol.Policy) - 1
	}
	return sol.Policy[s]
}

// Sample draws an action (0 or 1) for the given state.
func (sol *Solution) Sample(rng *rand.Rand, s int) int {
	if rng.Float64() < sol.ActionProb(s) {
		return 1
	}
	return 0
}

// ThresholdStructure analyses the policy per Theorem 2: it returns whether
// pi*(1|s) is non-increasing in s with at most one fractional state (i.e. a
// randomized mixture of two threshold strategies), together with the largest
// state where a node is added with positive probability.
//
//tolerance:testonly checks Theorem 2's threshold shape for cmdp's and internal/core's tests
func (sol *Solution) ThresholdStructure() (isThresholdMixture bool, lastAddState int) {
	const tol = 1e-6
	lastAddState = -1
	fractional := 0
	prev := 1.0
	mono := true
	for s, p := range sol.Policy {
		if p > tol {
			lastAddState = s
		}
		if p > tol && p < 1-tol {
			fractional++
		}
		if p > prev+tol {
			mono = false
		}
		prev = p
	}
	return mono && fractional <= 1, lastAddState
}

// errNotConverged reports a policy walk that exceeded its step bound, which
// exact arithmetic rules out (availability rises with every switch).
var errNotConverged = errors.New("cmdp: algorithm 2: policy walk did not converge")

// Solve runs Algorithm 2: it solves the occupancy-measure LP (14) and
// extracts the optimal randomized strategy pi*(a|s) = rho*(s,a) / sum_a
// rho*(s,a). States never visited under rho* receive the conservative
// default "add iff s <= f" so the returned policy is total.
//
// The LP is solved in policy space. Every f_S entry is positive
// (assumption B, checked here), so every policy's chain is irreducible and
// every basis of (14) is a deterministic policy plus one more basic
// variable: the availability surplus, or the second action in one state.
// A simplex over those bases is a walk over deterministic policies:
//
//  1. policy iteration on the cost s from "never add" finds the
//     unconstrained optimum;
//  2. while its availability is below epsilonA, the state with the smallest
//     Lagrangian breakpoint λ_s = Δc(s)/Δv(s) among those whose switch
//     raises availability (Δv(s) > 0; ties to the lowest state) switches
//     action — the next policy that is optimal for the cost
//     s − λ·1[s ≥ f+1] as λ grows;
//  3. the occupancy measures of the last two policies, which differ in one
//     state, are mixed so that availability equals epsilonA exactly. The
//     optimum randomizes in that state and nowhere else (Beutler & Ross
//     1985).
//
// When no switch can raise availability, the current policy maximizes it
// and the constraint is infeasible.
func Solve(m *Model) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for a := range m.FS {
		for s, row := range m.FS[a] {
			for s2, p := range row {
				if p == 0 {
					return nil, fmt.Errorf("%w: fS(%d|%d,%d) = 0 (Algorithm 2 needs assumption B, every entry positive)",
						ErrInvalidModel, s2, s, a)
				}
			}
		}
	}
	n := m.SMax + 1
	ev, err := newEvaluator(m)
	if err != nil {
		return nil, err
	}

	// 1. Policy iteration on the cost s. "Never add" is optimal for it on
	// every kernel NewBinomialModel builds, so this is one evaluation.
	for iter := 0; ; iter++ {
		if iter > n {
			return nil, errNotConverged
		}
		ev.evaluate()
		improved := false
		for s := 0; s < n; s++ {
			if dc, _ := ev.reducedCosts(s); dc < -ev.ucTol {
				if err := ev.switchAction(s); err != nil {
					return nil, err
				}
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	// 2. Raise availability one breakpoint at a time.
	avail := ev.availability()
	if avail >= m.EpsilonA {
		return ev.solution(1, -1), nil
	}
	for step := 0; step <= 4*n; step++ {
		switched, best := -1, math.Inf(1)
		for s := 0; s < n; s++ {
			if dc, dv := ev.reducedCosts(s); dv > ev.uvTol && dc/dv < best {
				switched, best = s, dc/dv
			}
		}
		if switched < 0 {
			return nil, infeasible(m)
		}
		copy(ev.xPrev, ev.x)
		availPrev := avail
		if err := ev.switchAction(switched); err != nil {
			return nil, err
		}
		ev.evaluate()
		avail = ev.availability()
		switch {
		case avail <= availPrev:
			// Only rounding was left to switch on: the previous policy
			// maximizes availability.
			return nil, infeasible(m)
		case avail >= m.EpsilonA:
			// 3. Mix the last two policies at the constraint.
			return ev.solution((m.EpsilonA-availPrev)/(avail-availPrev), switched), nil
		}
	}
	return nil, errNotConverged
}

func infeasible(m *Model) error {
	return fmt.Errorf("%w: epsilonA = %v with f = %d, smax = %d", ErrInfeasible, m.EpsilonA, m.F, m.SMax)
}

// reducedCostTol is the size, relative to the largest bias, below which a
// reduced cost is rounding rather than a reason to switch.
const reducedCostTol = 1e-12

// maxUpdates bounds the Sherman–Morrison updates kept on one factorization;
// a switch beyond it refactors. A fixed bound keeps the scratch, and with it
// the allocation count, independent of the path the walk takes.
const maxUpdates = 16

// evaluator evaluates the deterministic policies of one model. For the
// current policy π, Z is I − P_π with its first column replaced by ones, so
//
//	Z [g; h(1) … h(n−1)] = r  is the average-reward evaluation of r with h(0) = 0,
//	x Z = e₀                  is π's stationary distribution x,
//
// held as the LU factorization of the Z of some earlier policy plus one
// Sherman–Morrison update per row switched since.
type evaluator struct {
	m *Model
	n int
	// act[s] is the current policy's action in state s.
	act []int
	// lu holds L (unit diagonal, below) and U (on and above) of PZ₀
	// row-major; row i of PZ₀ is row perm[i] of Z₀.
	lu   []float64
	perm []int
	// Update k turned Z_k into Z_{k+1} = Z_k + e_s d_kᵀ; ys[k] holds
	// Z_k⁻¹ e_s, ds[k] holds d_k and alpha[k] = 1 / (1 + d_k·ys[k]).
	ys, ds  []float64
	alpha   [maxUpdates]float64
	updates int
	// uc and uv are [g; h(1..n−1)] for the cost s and the availability
	// indicator, ucTol and uvTol reducedCostTol times their largest bias;
	// x and xPrev the stationary distributions of the current and the
	// previous policy; rhs and res are scratch.
	uc, uv, x, xPrev, rhs, res []float64
	ucTol, uvTol               float64
}

// newEvaluator factors Z for "never add". Its scratch is two allocations,
// whatever the model or the walk, and the Solution keeps neither.
func newEvaluator(m *Model) (evaluator, error) {
	n := m.SMax + 1
	scratch := make([]float64, n*n+2*maxUpdates*n+6*n)
	take := func(k int) []float64 {
		s := scratch[:k:k]
		scratch = scratch[k:]
		return s
	}
	ints := make([]int, 2*n)
	ev := evaluator{m: m, n: n, act: ints[:n:n], perm: ints[n:],
		lu: take(n * n), ys: take(maxUpdates * n), ds: take(maxUpdates * n),
		uc: take(n), uv: take(n), x: take(n), xPrev: take(n), rhs: take(n), res: take(n)}
	return ev, ev.factor()
}

// row returns f_S(· | s, a) under the current policy's action.
func (ev *evaluator) row(s int) []float64 { return ev.m.FS[ev.act[s]][s] }

// factor builds Z for the current policy and factors it with partial
// pivoting, dropping every update.
func (ev *evaluator) factor() error {
	n, lu := ev.n, ev.lu
	for i := 0; i < n; i++ {
		zi := lu[i*n : (i+1)*n]
		for j, p := range ev.row(i) {
			zi[j] = -p
		}
		zi[i]++
		zi[0] = 1
		ev.perm[i] = i
	}
	for c := 0; c < n; c++ {
		pivot, best := c, math.Abs(lu[c*n+c])
		for r := c + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+c]); v > best {
				pivot, best = r, v
			}
		}
		if best == 0 {
			return fmt.Errorf("cmdp: algorithm 2: singular policy evaluation")
		}
		if pivot != c {
			pr, cr := lu[pivot*n:(pivot+1)*n], lu[c*n:(c+1)*n]
			for j := range cr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			ev.perm[pivot], ev.perm[c] = ev.perm[c], ev.perm[pivot]
		}
		cr := lu[c*n : (c+1)*n]
		inv := 1 / cr[c]
		for r := c + 1; r < n; r++ {
			rr := lu[r*n : (r+1)*n]
			l := rr[c] * inv
			rr[c] = l
			if l != 0 {
				axpy(-l, cr[c+1:], rr[c+1:])
			}
		}
	}
	ev.updates = 0
	return nil
}

// solve sets u = Z⁻¹ b for the current policy's Z.
func (ev *evaluator) solve(u, b []float64) {
	n, lu := ev.n, ev.lu
	for i := 0; i < n; i++ {
		u[i] = b[ev.perm[i]] - dot(lu[i*n:i*n+i], u)
	}
	for i := n - 1; i >= 0; i-- {
		ri := lu[i*n : (i+1)*n]
		u[i] = (u[i] - dot(ri[i+1:], u[i+1:])) / ri[i]
	}
	for k := 0; k < ev.updates; k++ {
		y, d := ev.ys[k*n:(k+1)*n], ev.ds[k*n:(k+1)*n]
		axpy(-ev.alpha[k]*dot(d, u), y, u)
	}
}

// solveT sets x = Z⁻ᵀ b for the current policy's Z, using b as scratch.
func (ev *evaluator) solveT(x, b []float64) {
	n, lu := ev.n, ev.lu
	for k := ev.updates - 1; k >= 0; k-- {
		y, d := ev.ys[k*n:(k+1)*n], ev.ds[k*n:(k+1)*n]
		axpy(-ev.alpha[k]*dot(y, b), d, b)
	}
	// Uᵀ w = b, then Lᵀ z = w, both in b by rows; then x = Pᵀ z.
	for i := 0; i < n; i++ {
		ri := lu[i*n : (i+1)*n]
		b[i] /= ri[i]
		axpy(-b[i], ri[i+1:], b[i+1:])
	}
	for i := n - 1; i > 0; i-- {
		axpy(-b[i], lu[i*n:i*n+i], b[:i])
	}
	for i, p := range ev.perm {
		x[p] = b[i]
	}
}

// switchAction flips the action in state s: row s of Z changes by d =
// f_S(·|s,old) − f_S(·|s,new) outside the first column.
func (ev *evaluator) switchAction(s int) error {
	n := ev.n
	old := ev.row(s)
	ev.act[s] = 1 - ev.act[s]
	if ev.updates == maxUpdates {
		return ev.factor()
	}
	k := ev.updates
	y, d := ev.ys[k*n:(k+1)*n], ev.ds[k*n:(k+1)*n]
	for j, p := range ev.row(s) {
		d[j] = old[j] - p
	}
	d[0] = 0
	clear(ev.rhs)
	ev.rhs[s] = 1
	ev.solve(y, ev.rhs)
	den := 1 + dot(d, y) // det Z_{k+1} / det Z_k
	if den == 0 {
		return ev.factor()
	}
	ev.alpha[k] = 1 / den
	ev.updates++
	return nil
}

// evaluate solves the current policy for uc, uv and x. x takes one step of
// iterative refinement against the kernel itself, which holds the mixed
// occupancy measure's availability to epsilonA and its stationarity
// residual to rounding.
func (ev *evaluator) evaluate() {
	for i := range ev.rhs {
		ev.rhs[i] = float64(i)
	}
	ev.solve(ev.uc, ev.rhs)
	for i := range ev.rhs {
		ev.rhs[i] = 0
		if i > ev.m.F {
			ev.rhs[i] = 1
		}
	}
	ev.solve(ev.uv, ev.rhs)
	ev.ucTol, ev.uvTol = reducedCostTol*maxAbs(ev.uc[1:]), reducedCostTol*maxAbs(ev.uv[1:])
	clear(ev.rhs)
	ev.rhs[0] = 1
	ev.solveT(ev.x, ev.rhs)
	// res = e₀ − x Z: 1 − Σ x in the first column, (x P)_j − x_j elsewhere.
	total := 0.0
	for j, xj := range ev.x {
		total += xj
		ev.res[j] = -xj
	}
	for i, xi := range ev.x {
		axpy(xi, ev.row(i), ev.res)
	}
	ev.res[0] = 1 - total
	ev.solveT(ev.rhs, ev.res)
	axpy(1, ev.rhs, ev.x)
}

// reducedCosts returns how switching the action in state s changes the
// one-step expectation of the cost bias and of the availability bias:
// Δc(s) and Δv(s).
func (ev *evaluator) reducedCosts(s int) (dc, dv float64) {
	cur, alt := ev.row(s), ev.m.FS[1-ev.act[s]][s]
	for j := 1; j < ev.n; j++ {
		diff := alt[j] - cur[j]
		dc += diff * ev.uc[j]
		dv += diff * ev.uv[j]
	}
	return dc, dv
}

// availability is P[s >= f+1] under the current policy's x.
func (ev *evaluator) availability() float64 {
	a := 0.0
	for _, p := range ev.x[ev.m.F+1:] {
		a += p
	}
	return a
}

// solution returns the occupancy measure (1−t)·ρ(xPrev) + t·ρ(x), where
// the previous policy differs from the current one only in state s (t = 1
// and s = −1 for the current policy alone), with Policy, Occupancy and the
// metrics carved from one allocation.
func (ev *evaluator) solution(t float64, s int) *Solution {
	n, f := ev.n, ev.m.F
	out := make([]float64, 3*n)
	sol := &Solution{Policy: out[:n:n], Occupancy: make([][]float64, n)}
	for i := 0; i < n; i++ {
		occ := out[n+2*i : n+2*i+2 : n+2*i+2]
		occ[ev.act[i]] = t * ev.x[i]
		if t < 1 {
			prev := ev.act[i]
			if i == s {
				prev = 1 - prev
			}
			occ[prev] += (1 - t) * ev.xPrev[i]
		}
		sol.Occupancy[i] = occ
		total := occ[0] + occ[1]
		// States with numerically negligible occupancy (only the smoothing
		// mass visits them) take the defensive default rather than a noise
		// ratio.
		switch {
		case total > 1e-7:
			sol.Policy[i] = occ[1] / total
		case i <= f:
			sol.Policy[i] = 1 // unvisited low state: grow defensively
		default:
			sol.Policy[i] = 0
		}
		sol.AvgNodes += float64(i) * total
		if i >= f+1 {
			sol.Availability += total
		}
	}
	return sol
}

func maxAbs(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		m = max(m, math.Abs(v))
	}
	return m
}

// dot returns a·b, in four partial sums like axpy.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a4, b4 := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy sets y += alpha·x, four entries per iteration: the LU spends most
// of its time here.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4, y4 := x[i:i+4:i+4], y[i:i+4:i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}
