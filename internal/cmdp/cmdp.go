// Package cmdp implements Problem 2 of the paper (optimal replication
// factor): the constrained MDP over the expected number of healthy nodes
// (eq. 8-10), the occupancy-measure linear program of Algorithm 2 (eq. 14),
// the assumption checks of Theorem 2, and the failure-time analytics of
// Fig 6 (MTTF and reliability curves, Appendix F).
package cmdp

import (
	"errors"
	"fmt"
	"math"

	"tolerance/internal/dist"
	"tolerance/internal/recovery"
)

// ErrInvalidModel is returned when a CMDP model fails validation.
var ErrInvalidModel = errors.New("cmdp: invalid model")

// ErrInfeasible is returned when the availability constraint cannot be met
// (assumption A of Theorem 2 violated).
var ErrInfeasible = errors.New("cmdp: availability constraint infeasible")

// NumActions is the size of the action space A_S = {0, 1} (add a node or
// not, eq. 8).
const NumActions = 2

// Model is the CMDP of Problem 2. States s in {0, ..., SMax} count healthy
// nodes; action 1 adds a node.
type Model struct {
	// SMax is the maximum number of nodes s_max.
	SMax int
	// F is the tolerance threshold: service is available iff s >= F+1
	// (eq. 9, Prop. 1).
	F int
	// EpsilonA is the availability lower bound (eq. 10b).
	EpsilonA float64
	// FS is the transition function indexed [action][s][s'] (eq. 8).
	FS [][][]float64
}

// Validate checks dimensions and stochasticity.
func (m *Model) Validate() error {
	if m.SMax < 1 {
		return fmt.Errorf("%w: smax = %d", ErrInvalidModel, m.SMax)
	}
	if m.F < 0 || m.F >= m.SMax {
		return fmt.Errorf("%w: f = %d with smax = %d", ErrInvalidModel, m.F, m.SMax)
	}
	if !(m.EpsilonA >= 0 && m.EpsilonA <= 1) { // also rejects NaN
		return fmt.Errorf("%w: epsilonA = %v", ErrInvalidModel, m.EpsilonA)
	}
	n := m.SMax + 1
	if len(m.FS) != NumActions {
		return fmt.Errorf("%w: FS has %d actions", ErrInvalidModel, len(m.FS))
	}
	for a := range m.FS {
		if len(m.FS[a]) != n {
			return fmt.Errorf("%w: FS[%d] has %d states", ErrInvalidModel, a, len(m.FS[a]))
		}
		for s := range m.FS[a] {
			if len(m.FS[a][s]) != n {
				return fmt.Errorf("%w: FS[%d][%d] has %d entries", ErrInvalidModel, a, s, len(m.FS[a][s]))
			}
			sum := 0.0
			for s2, p := range m.FS[a][s] {
				if p < 0 || math.IsNaN(p) {
					return fmt.Errorf("%w: FS[%d][%d][%d] = %v", ErrInvalidModel, a, s, s2, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("%w: FS[%d][%d] sums to %v", ErrInvalidModel, a, s, sum)
			}
		}
	}
	return nil
}

// Theorem2Report records which structural assumptions of Theorem 2 a model
// satisfies. Assumption A (feasibility) is checked by Solve; B is positivity
// of fS; C is first-order stochastic monotonicity in the conditioning state;
// D is tail-sum supermodularity. The paper notes (Remark after Alg. 2) that
// Algorithm 2 is correct even when B-D fail — they are only needed for the
// threshold-structure guarantee — and D in particular fails for binomial
// transition kernels.
type Theorem2Report struct {
	// B, C, D report whether each assumption holds.
	B, C, D bool
	// Detail describes the first violation found per assumption.
	Detail map[string]string
}

// AllHold reports whether every checked assumption holds.
//
//tolerance:testonly checks Theorem 2's assumptions B-D for cmdp's tests
func (r Theorem2Report) AllHold() bool { return r.B && r.C && r.D }

// CheckTheorem2Assumptions inspects assumptions B-D of Theorem 2.
//
//tolerance:testonly checks Theorem 2's assumptions B-D for cmdp's tests
func (m *Model) CheckTheorem2Assumptions() (Theorem2Report, error) {
	rep := Theorem2Report{B: true, C: true, D: true, Detail: map[string]string{}}
	if err := m.Validate(); err != nil {
		return rep, err
	}
	n := m.SMax + 1
	// B: fS(s'|s,a) > 0.
assumptionB:
	for a := 0; a < NumActions; a++ {
		for s := 0; s < n; s++ {
			for s2 := 0; s2 < n; s2++ {
				if m.FS[a][s][s2] <= 0 {
					rep.B = false
					rep.Detail["B"] = fmt.Sprintf("fS(%d|%d,%d) = 0", s2, s, a)
					break assumptionB
				}
			}
		}
	}
	// C: tail sums non-decreasing in the conditioning state.
assumptionC:
	for a := 0; a < NumActions; a++ {
		for sHat := 0; sHat+1 < n; sHat++ {
			for s := 0; s < n; s++ {
				if m.tailSum(a, sHat+1, s)+1e-9 < m.tailSum(a, sHat, s) {
					rep.C = false
					rep.Detail["C"] = fmt.Sprintf("tail sum decreases: s=%d, sHat=%d, a=%d", s, sHat, a)
					break assumptionC
				}
			}
		}
	}
	// D: tail-sum difference between the actions increasing in the cutoff.
assumptionD:
	for sHat := 0; sHat < n; sHat++ {
		prev := math.Inf(-1)
		for s := 0; s < n; s++ {
			diff := m.tailSum(1, sHat, s) - m.tailSum(0, sHat, s)
			if diff+1e-9 < prev {
				rep.D = false
				rep.Detail["D"] = fmt.Sprintf("difference not increasing: s=%d, sHat=%d", s, sHat)
				break assumptionD
			}
			prev = diff
		}
	}
	return rep, nil
}

// Digest is a canonical hash over everything that determines the
// occupancy-measure LP solution: SMax, F and EpsilonA, then every row of FS
// in order, bit for bit. Two models with equal digests pose the same
// Algorithm 2 problem, which is what replication-strategy caches key on.
func (m *Model) Digest() dist.Digest {
	d := dist.NewDigest().Float(float64(m.SMax)).Float(float64(m.F)).Float(m.EpsilonA)
	for _, action := range m.FS {
		for _, row := range action {
			d = d.Floats(row)
		}
	}
	return d
}

// tailSum returns sum_{s' >= s} fS(s' | sHat, a).
func (m *Model) tailSum(a, sHat, s int) float64 {
	t := 0.0
	for s2 := s; s2 <= m.SMax; s2++ {
		t += m.FS[a][sHat][s2]
	}
	return t
}

// NewBinomialModel builds the analytic transition model: each healthy node
// independently remains healthy with probability q per step, and action 1
// adds one healthy node:
//
//	fS(s' | s, a) = P[Binomial(s, q) = s' - a]
//
// clamped at the state-space boundary. A small smoothing mass eps keeps the
// chain irreducible (assumption B of Theorem 2); eps <= 0 selects 1e-9.
//
// The model is built in an arena of its own (Arena.BinomialModel), which it
// keeps; a caller that solves and discards kernels builds them in a pooled
// arena instead.
func NewBinomialModel(smax, f int, epsilonA, q, eps float64) (*Model, error) {
	return new(Arena).BinomialModel(smax, f, epsilonA, q, eps)
}

// binomialRows computes the pmf rows P[Binomial(s, q) = k], k = 0..s, for
// s = 0..n into one reused buffer. Each entry is dist.Binomial(s, q, k) bit
// for bit — the same special cases at q = 0 and q = 1 and the same
// expression in the same order — with what dist.Binomial recomputes per
// entry hoisted: the three log-gamma terms come from a log-factorial table
// and the two logarithms of q are taken once.
type binomialRows struct {
	q, logQ, log1mQ float64
	logFact         []float64 // logFact[i] = ln i!, as Lgamma(i+1)
	buf             []float64
}

// newBinomialRows lays the rows out in scratch, which must hold 2*(n+1)
// entries for n >= 0; every entry a row reads is written first.
func newBinomialRows(n int, q float64, scratch []float64) binomialRows {
	n = max(n, 0)
	b := binomialRows{q: q, logQ: math.Log(q), log1mQ: math.Log(1 - q),
		logFact: scratch[:n+1], buf: scratch[n+1 : 2*(n+1)]}
	for i := range b.logFact {
		b.logFact[i], _ = math.Lgamma(float64(i) + 1)
	}
	return b
}

// row returns the pmf of Binomial(s, q) over k = 0..s, valid until the
// next call.
func (b *binomialRows) row(s int) []float64 {
	row := b.buf[:s+1]
	switch {
	case b.q <= 0:
		clear(row)
		row[0] = 1
	case b.q >= 1:
		clear(row)
		row[s] = 1
	default:
		for k := range row {
			ln := b.logFact[s] - b.logFact[k] - b.logFact[s-k] + float64(k)*b.logQ + float64(s-k)*b.log1mQ
			row[k] = math.Exp(ln)
		}
	}
	return row
}

// HealthyProb computes q, the per-step node survival probability of
// NewBinomialModel's f_S, from Problem 1 under the given recovery strategy
// (Table 8: "fS estimated from simulations of Prob 1" — here an exact
// closed-loop evaluation on the DP's belief grid, recovery.Occupancy). A
// node counts as healthy at a step when it is alive and not compromised
// while its controller waits, so
//
//	q = (1 − compromised-and-waiting share) · (1 − crash hazard),
//
// both per alive step: the long-run share of alive steps the node spends
// compromised without recovering, times the probability that an alive
// node survives the step. The shares are over one BTR window for finite
// deltaR (the process renews there) and long-run averages for
// InfiniteDeltaR. The hazard is the evaluator's horizon-free one; rollout
// estimates divided crashes per episode by the episode length, which
// undercounts once episodes end in crashes. The node model enters through
// its closed-loop table t (recovery.NewOccupancyTable), which every strategy
// and deltaR of the model share: a finite-deltaR threshold strategy's
// window starts from the table's stored closed loop under its leading
// threshold, so the positions a model's windows agree on run once per
// table, and q is the same bits as from a walk of the whole window.
func HealthyProb(t *recovery.OccupancyTable, s recovery.Strategy, deltaR int) (float64, error) {
	occ, err := t.Shares(s, deltaR)
	if err != nil {
		return 0, err
	}
	q := (1 - occ.CompromisedWaiting) * (1 - occ.CrashHazard)
	return math.Min(1, math.Max(0, q)), nil
}

// noRecoveryChain returns the transition rows of the Markov chain over the
// healthy-node count when no recoveries or additions occur: each healthy
// node survives a step with probability q = (1-pA)(1-pC1) (Fig 6, Appendix
// F). Row s is the Binomial(s, q) pmf, so P(s, s') = 0 for s' > s: the
// count never grows.
func noRecoveryChain(n int, q float64) ([][]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n = %d", ErrInvalidModel, n)
	}
	if !(q >= 0 && q <= 1) { // also rejects NaN
		return nil, fmt.Errorf("%w: q = %v", ErrInvalidModel, q)
	}
	p := make([][]float64, n+1)
	backing := make([]float64, (n+1)*(n+1))
	pmf := newBinomialRows(n, q, make([]float64, 2*(n+1)))
	for s := 0; s <= n; s++ {
		row := backing[s*(n+1) : (s+1)*(n+1)]
		copy(row, pmf.row(s))
		// Renormalize against rounding drift.
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		for i := range row {
			row[i] /= sum
		}
		p[s] = row
	}
	return p, nil
}

// MTTF computes E[T(f)] of Fig 6a: the mean time until fewer than
// 2f+k+1 nodes remain, starting from n1 healthy nodes with per-step node
// survival probability q and no recoveries. It is the hitting time of the
// failure set F = {0, ..., 2f+k} (Appendix F). The count never grows, so
// the hitting times solve by forward substitution over the states outside
// F in increasing order:
//
//	h(s) = (1 + sum_{s' not in F, s' < s} P(s, s') h(s')) / sum_{s' < s} P(s, s').
//
// The denominator is the row's off-diagonal mass rather than 1 - P(s, s),
// so nothing cancels as q -> 1; a state that cannot leave has h = +Inf.
func MTTF(n1, f, k int, q float64) (float64, error) {
	p, err := noRecoveryChain(n1, q)
	if err != nil {
		return 0, err
	}
	lo := max(2*f+k+1, 0) // the lowest state outside F
	h := make([]float64, n1+1)
	for s := lo; s <= n1; s++ {
		row := p[s]
		leave := 0.0
		for _, v := range row[:s] {
			leave += v
		}
		if leave == 0 {
			h[s] = math.Inf(1)
			continue
		}
		sum := 1.0
		for s2 := lo; s2 < s; s2++ {
			if row[s2] > 0 { // 0 * +Inf would be NaN
				sum += row[s2] * h[s2]
			}
		}
		h[s] = sum / leave
	}
	return h[n1], nil
}

// Reliability computes R(t) = P[T(f) > t] of Fig 6b for t = 0..horizon by
// eq. (18): the mass outside F of the distribution moved t steps from n1
// over the chain with F absorbing. Mass in F never returns, so only the
// states outside F are moved. The count never grows, so the step updates
// the distribution in place: the new mass of state j sums the old mass of
// states j..n1 only.
func Reliability(n1, f, k, horizon int, q float64) ([]float64, error) {
	if horizon < 0 {
		return nil, fmt.Errorf("%w: horizon = %d", ErrInvalidModel, horizon)
	}
	p, err := noRecoveryChain(n1, q)
	if err != nil {
		return nil, err
	}
	lo := max(2*f+k+1, 0) // the lowest state outside F
	mu := make([]float64, n1+1)
	mu[n1] = 1
	out := make([]float64, horizon+1)
	for t := range out {
		if t > 0 {
			for j := lo; j <= n1; j++ {
				next := 0.0
				for i := j; i <= n1; i++ {
					next += mu[i] * p[i][j]
				}
				mu[j] = next
			}
		}
		surv := 0.0
		for _, m := range mu[min(lo, n1+1):] {
			surv += m
		}
		out[t] = surv
	}
	return out, nil
}
