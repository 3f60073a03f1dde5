// Package nodemodel implements the per-node model of Section V-A of the
// paper: the three-state Markov transition function (eq. 2), the IDS-alert
// observation model (eq. 3), the recovery cost function (eq. 5), the scalar
// belief recursion of Appendix A, and the assumption checks of Theorem 1.
package nodemodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tolerance/internal/dist"
)

// State of a node (Fig 3). Healthy and Compromised match the paper's
// numeric convention H, C = 0, 1; Crashed is the absorbing ∅ state.
type State int

// Node states.
const (
	Healthy     State = 0
	Compromised State = 1
	Crashed     State = 2
)

// String returns the paper's symbol for the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "H"
	case Compromised:
		return "C"
	case Crashed:
		return "∅"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Action of a node controller. Wait and Recover match the paper's numeric
// convention W, R = 0, 1.
type Action int

// Node controller actions.
const (
	Wait    Action = 0
	Recover Action = 1
)

// String returns the paper's symbol for the action.
func (a Action) String() string {
	switch a {
	case Wait:
		return "W"
	case Recover:
		return "R"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// ErrInvalidParams is returned when model parameters are out of range.
var ErrInvalidParams = errors.New("nodemodel: invalid parameters")

// Params collects the node model parameters of eq. (2)-(5) and Table 8.
type Params struct {
	// PA is the per-step probability that the attacker compromises the node.
	PA float64
	// PC1 is the per-step crash probability in the healthy state.
	PC1 float64
	// PC2 is the per-step crash probability in the compromised state.
	PC2 float64
	// PU is the per-step probability that a software update restores a
	// compromised node (eq. 2g).
	PU float64
	// Eta is the cost weight η >= 1 trading time-to-recovery against
	// recovery frequency (eq. 5).
	Eta float64
	// ZHealthy and ZCompromised are the observation distributions
	// Z(. | H) and Z(. | C) over alert counts (eq. 3). They must have the
	// same support size.
	ZHealthy     *dist.Categorical
	ZCompromised *dist.Categorical
}

// Table 8's alert distributions, built once: a Categorical has no mutators,
// so every DefaultParams value shares the pair.
var (
	tableEightHealthy     = dist.MustBetaBinomial(10, 0.7, 3).Categorical()
	tableEightCompromised = dist.MustBetaBinomial(10, 1, 0.7).Categorical()
)

// DefaultParams returns the paper's Table 8 configuration for the numerical
// evaluation of Problem 1 (Figs 5-8): pA = 0.1, pC1 = 1e-5, pC2 = 1e-3,
// pU = 0.02, η = 2, Z(.|H) = BetaBin(10, 0.7, 3), Z(.|C) = BetaBin(10, 1, 0.7).
func DefaultParams() Params {
	return Params{
		PA:           0.1,
		PC1:          1e-5,
		PC2:          1e-3,
		PU:           0.02,
		Eta:          2,
		ZHealthy:     tableEightHealthy,
		ZCompromised: tableEightCompromised,
	}
}

// Validate checks that probabilities are in range and the observation models
// are present with matching supports.
func (p Params) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"PA", p.PA}, {"PC1", p.PC1}, {"PC2", p.PC2}, {"PU", p.PU},
	} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("%w: %s = %v", ErrInvalidParams, pr.name, pr.v)
		}
	}
	if p.Eta < 1 {
		return fmt.Errorf("%w: Eta = %v < 1", ErrInvalidParams, p.Eta)
	}
	if p.ZHealthy == nil || p.ZCompromised == nil {
		return fmt.Errorf("%w: missing observation model", ErrInvalidParams)
	}
	if p.ZHealthy.Len() != p.ZCompromised.Len() {
		return fmt.Errorf("%w: observation supports differ (%d vs %d)",
			ErrInvalidParams, p.ZHealthy.Len(), p.ZCompromised.Len())
	}
	return nil
}

// CheckTheorem1Assumptions verifies assumptions A-E of Theorem 1 and returns
// a descriptive error naming the first violated assumption.
//
//tolerance:testonly checks Theorem 1's assumptions A-E for nodemodel's tests
func (p Params) CheckTheorem1Assumptions() error {
	if err := p.Validate(); err != nil {
		return err
	}
	// A: all probabilities in the open interval (0, 1).
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"pA", p.PA}, {"pU", p.PU}, {"pC1", p.PC1}, {"pC2", p.PC2},
	} {
		if pr.v <= 0 || pr.v >= 1 {
			return fmt.Errorf("%w: assumption A violated: %s = %v not in (0,1)",
				ErrInvalidParams, pr.name, pr.v)
		}
	}
	// B: pA + pU <= 1.
	if p.PA+p.PU > 1 {
		return fmt.Errorf("%w: assumption B violated: pA + pU = %v > 1",
			ErrInvalidParams, p.PA+p.PU)
	}
	// C: pC1(pU-1) / (pA(pC1-1) + pC1(pU-1)) <= pC2.
	denom := p.PA*(p.PC1-1) + p.PC1*(p.PU-1)
	if denom != 0 {
		lhs := p.PC1 * (p.PU - 1) / denom
		if lhs > p.PC2 {
			return fmt.Errorf("%w: assumption C violated: bound %v > pC2 = %v",
				ErrInvalidParams, lhs, p.PC2)
		}
	}
	// D: Z(o|s) > 0 for all o, s.
	for o := 0; o < p.ZHealthy.Len(); o++ {
		if p.ZHealthy.Prob(o) <= 0 || p.ZCompromised.Prob(o) <= 0 {
			return fmt.Errorf("%w: assumption D violated: zero observation probability at o = %d",
				ErrInvalidParams, o)
		}
	}
	// E: Z is TP-2, equivalent for two rows to the monotone likelihood
	// ratio: ZC(o)/ZH(o) non-decreasing in o.
	prev := math.Inf(-1)
	for o := 0; o < p.ZHealthy.Len(); o++ {
		ratio := p.ZCompromised.Prob(o) / p.ZHealthy.Prob(o)
		if ratio < prev-1e-9 {
			return fmt.Errorf("%w: assumption E violated: likelihood ratio decreases at o = %d",
				ErrInvalidParams, o)
		}
		prev = ratio
	}
	return nil
}

// NumObs returns the size of the observation space.
func (p Params) NumObs() int { return p.ZHealthy.Len() }

// Digest is a canonical hash over every quantity that determines the
// model's control problems: pA, pC1, pC2, pU and eta, then for each
// observation distribution its size and probabilities (NaN for a nil one),
// every value bit for bit. Two Params values with the same digest yield
// identical solutions of Problems 1 and 2, which is what strategy caches
// key on.
func (p Params) Digest() dist.Digest {
	d := dist.NewDigest().Float(p.PA).Float(p.PC1).Float(p.PC2).Float(p.PU).Float(p.Eta)
	for _, z := range [2]*dist.Categorical{p.ZHealthy, p.ZCompromised} {
		if z == nil {
			d = d.Float(math.NaN())
			continue
		}
		n := z.Len()
		d = d.Float(float64(n))
		for o := 0; o < n; o++ {
			d = d.Float(z.Prob(o))
		}
	}
	return d
}

// Transition returns the distribution over successor states, eq. (2).
func (p Params) Transition(s State, a Action) [3]float64 {
	var out [3]float64
	switch s {
	case Crashed:
		out[Crashed] = 1 // (2a): absorbing
	case Healthy:
		out[Crashed] = p.PC1                    // (2b)
		out[Healthy] = (1 - p.PA) * (1 - p.PC1) // (2d)-(2e)
		out[Compromised] = (1 - p.PC1) * p.PA   // (2h)
	case Compromised:
		out[Crashed] = p.PC2 // (2c)
		if a == Recover {
			out[Healthy] = (1 - p.PA) * (1 - p.PC2) // (2f)
			out[Compromised] = (1 - p.PC2) * p.PA   // (2i)
		} else {
			out[Healthy] = (1 - p.PC2) * p.PU           // (2g)
			out[Compromised] = (1 - p.PC2) * (1 - p.PU) // (2j)
		}
	}
	return out
}

// Cost returns the immediate cost c_N(s, a) = η s - a η s + a of eq. (5);
// the crashed state incurs no cost (the node is evicted from the model).
func (p Params) Cost(s State, a Action) float64 {
	if s == Crashed {
		return 0
	}
	sv := 0.0
	if s == Compromised {
		sv = 1
	}
	av := 0.0
	if a == Recover {
		av = 1
	}
	return p.Eta*sv - av*p.Eta*sv + av
}

// Observation returns the alert distribution Z(. | s) (eq. 3). Crashed nodes
// emit no alerts; the model maps them to the healthy distribution, which is
// immaterial because the crashed state is absorbing with zero cost and is
// detected out-of-band (a crashed node stops reporting, §V-B).
func (p Params) Observation(s State) *dist.Categorical {
	if s == Compromised {
		return p.ZCompromised
	}
	return p.ZHealthy
}

// SampleTransition draws the successor state.
//
//tolerance:testonly oracle: the Params-stepped loop Kernel and Algorithm 1's tape are held to
func (p Params) SampleTransition(rng *rand.Rand, s State, a Action) State {
	row := p.Transition(s, a)
	u := rng.Float64()
	acc := 0.0
	for st, pr := range row {
		acc += pr
		if u < acc {
			return State(st)
		}
	}
	return Crashed
}

// SampleObservation draws an alert count from Z(. | s).
//
//tolerance:testonly oracle: the Params-stepped loop Kernel and Algorithm 1's tape are held to
func (p Params) SampleObservation(rng *rand.Rand, s State) int {
	return p.Observation(s).Sample(rng)
}

// UpdateBelief performs the scalar belief recursion of Appendix A restricted
// to the alive subspace: b is P[S = C | alive], a is the last action, o the
// new observation. The result is clamped to [0, 1].
func (p Params) UpdateBelief(b float64, a Action, o int) float64 {
	pred := p.PredictBelief(b, a)
	zc := p.ZCompromised.Prob(o)
	zh := p.ZHealthy.Prob(o)
	num := zc * pred
	den := num + zh*(1-pred)
	if den <= 0 {
		return b
	}
	nb := num / den
	return math.Min(1, math.Max(0, nb))
}

// Posterior applies only the observation part of the belief update: the
// compromise probability after observing o from prior, with no action and
// no transition before it (an episode's first observation).
//
//tolerance:testonly oracle: the Params-stepped loop Kernel and Algorithm 1's tape are held to
func (p Params) Posterior(prior float64, o int) float64 {
	zc := p.ZCompromised.Prob(o)
	zh := p.ZHealthy.Prob(o)
	num := zc * prior
	den := num + zh*(1-prior)
	if den <= 0 {
		return prior
	}
	return num / den
}

// PredictBelief returns the pre-observation compromise probability after
// taking action a from belief b, conditional on the node staying alive. The
// survival weighting (1-pC1 for healthy, 1-pC2 for compromised) matches the
// exact three-state Bayes update projected onto {H, C}.
func (p Params) PredictBelief(b float64, a Action) float64 {
	if a == Recover {
		// From either alive state, recovery resets the compromise
		// probability to pA (eq. 2f, 2h, 2i).
		return p.PA
	}
	wh := (1 - b) * (1 - p.PC1)
	wc := b * (1 - p.PC2)
	surv := wh + wc
	if surv <= 0 {
		return b
	}
	return (wh*p.PA + wc*(1-p.PU)) / surv
}

// SurvivalProb returns the probability that the node does not crash this
// step given belief b.
func (p Params) SurvivalProb(b float64) float64 {
	return (1-b)*(1-p.PC1) + b*(1-p.PC2)
}

// ExpectedCost returns the belief-expected immediate cost of eq. (5):
// η b (1-a) + a.
func (p Params) ExpectedCost(b float64, a Action) float64 {
	if a == Recover {
		return 1
	}
	return p.Eta * b
}

// FailureProbByTime returns P[S_t = C or S_t = ∅ | no recoveries] for
// t = 1..horizon starting from the healthy state — the curves of Fig 5.
func (p Params) FailureProbByTime(horizon int) []float64 {
	// Three-state forward recursion under action Wait.
	mu := [3]float64{1, 0, 0}
	out := make([]float64, horizon+1)
	out[0] = 0
	for t := 1; t <= horizon; t++ {
		var next [3]float64
		for s := 0; s < 3; s++ {
			if mu[s] == 0 {
				continue
			}
			row := p.Transition(State(s), Wait)
			for s2 := 0; s2 < 3; s2++ {
				next[s2] += mu[s] * row[s2]
			}
		}
		mu = next
		out[t] = mu[Compromised] + mu[Crashed]
	}
	return out
}

// OptimalValue returns V*_t(b) for t = horizon, the least expected cost of
// Problem 1 over horizon steps from belief b = P[S = C | alive] (the value
// function of Fig 4), and the action that attains it. V_0 = 0 and
//
//	V_t(b) = min_a ExpectedCost(b, a) + SurvivalProb(b) Σ_o P(o) V_{t-1}(UpdateBelief(b, a, o)),
//
// where P(o) = Z(o|C) pred + Z(o|H) (1 - pred) and pred = PredictBelief(b, a).
// The scalar recursion is exact for the three-state model: the crashed
// state costs nothing and never leaves, so the value of the belief
// (h, c, ∅) is (h + c) V(c / (h + c)). Observations with P(o) = 0 are
// skipped, and a tie goes to Wait. The recursion visits every
// action-observation path, so it costs (2|O|)^horizon belief updates.
func (p Params) OptimalValue(b float64, horizon int) (float64, Action) {
	if horizon <= 0 {
		return 0, Wait
	}
	best, bestAction := math.Inf(1), Wait
	for _, a := range []Action{Wait, Recover} {
		pred := p.PredictBelief(b, a)
		future := 0.0
		for o := 0; o < p.NumObs(); o++ {
			po := p.ZCompromised.Prob(o)*pred + p.ZHealthy.Prob(o)*(1-pred)
			if po == 0 {
				continue
			}
			v, _ := p.OptimalValue(p.UpdateBelief(b, a, o), horizon-1)
			future += po * v
		}
		if v := p.ExpectedCost(b, a) + p.SurvivalProb(b)*future; v < best {
			best, bestAction = v, a
		}
	}
	return best, bestAction
}
