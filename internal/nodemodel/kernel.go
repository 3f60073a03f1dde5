package nodemodel

import "tolerance/internal/dist"

// Kernel is a node model's per-step arithmetic with everything that does
// not depend on the step hoisted out: the cumulative transition rows, the
// two likelihood vectors, the survival and update complements of the
// predictive belief, and the cost table. Build it once per rollout or
// evaluation with Params.Kernel; it is read-only afterwards, so concurrent
// episodes may share one.
//
// Every method performs the same float operations in the same order as the
// Params method it replaces (SampleTransition, SampleObservation,
// UpdateBelief, Posterior, Cost), which stay its test oracles, so an
// episode run through a Kernel is bit-identical to one run through Params.
// The samplers take their uniform as an argument and draw nothing
// themselves; actions must be Wait or Recover.
type Kernel struct {
	// cum[s][a] holds the first two partial sums of Transition(s, a), as
	// SampleTransition accumulates them: u below cum[s][a][0] moves to
	// Healthy, below cum[s][a][1] to Compromised, and anything else crashes.
	cum [3][2][2]float64
	// lik[o] is {Z(o|C), Z(o|H)}.
	lik [][2]float64
	// Complements and PA of PredictBelief.
	pa, survH, survC, stayC float64
	cost                    [3][2]float64
	zh, zc                  *dist.Categorical
}

// Kernel builds the hoisted per-step form of p. p must be valid.
func (p Params) Kernel() Kernel {
	k := Kernel{
		lik:   make([][2]float64, p.NumObs()),
		pa:    p.PA,
		survH: 1 - p.PC1,
		survC: 1 - p.PC2,
		stayC: 1 - p.PU,
		zh:    p.ZHealthy,
		zc:    p.ZCompromised,
	}
	for s := Healthy; s <= Crashed; s++ {
		for a := Wait; a <= Recover; a++ {
			row := p.Transition(s, a)
			acc := 0.0
			acc += row[Healthy]
			k.cum[s][a][0] = acc
			acc += row[Compromised]
			k.cum[s][a][1] = acc
			k.cost[s][a] = p.Cost(s, a)
		}
	}
	for o := range k.lik {
		k.lik[o] = [2]float64{p.ZCompromised.Prob(o), p.ZHealthy.Prob(o)}
	}
	return k
}

// SampleTransition returns the successor of s under a for the uniform u,
// the state Params.SampleTransition returns when its rng yields u.
func (k *Kernel) SampleTransition(s State, a Action, u float64) State {
	c := &k.cum[s][a]
	if u < c[0] {
		return Healthy
	}
	if u < c[1] {
		return Compromised
	}
	return Crashed
}

// SampleObservation returns the alert count Z(.|s) yields for the uniform
// u, as Params.SampleObservation does.
func (k *Kernel) SampleObservation(s State, u float64) int {
	if s == Compromised {
		return k.zc.Quantile(u)
	}
	return k.zh.Quantile(u)
}

// likelihoods returns {Z(o|C), Z(o|H)}, zero outside the support.
func (k *Kernel) likelihoods(o int) (zc, zh float64) {
	if uint(o) < uint(len(k.lik)) {
		l := &k.lik[o]
		return l[0], l[1]
	}
	return 0, 0
}

// UpdateBelief is Params.UpdateBelief.
func (k *Kernel) UpdateBelief(b float64, a Action, o int) float64 {
	pred := k.pa
	if a != Recover {
		wh := (1 - b) * k.survH
		wc := b * k.survC
		surv := wh + wc
		if surv <= 0 {
			pred = b
		} else {
			pred = (wh*k.pa + wc*k.stayC) / surv
		}
	}
	zc, zh := k.likelihoods(o)
	num := zc * pred
	den := num + zh*(1-pred)
	if den <= 0 {
		return b
	}
	return min(1, max(0, num/den))
}

// Posterior is Params.Posterior.
func (k *Kernel) Posterior(prior float64, o int) float64 {
	zc, zh := k.likelihoods(o)
	num := zc * prior
	den := num + zh*(1-prior)
	if den <= 0 {
		return prior
	}
	return num / den
}

// Cost is Params.Cost.
func (k *Kernel) Cost(s State, a Action) float64 { return k.cost[s][a] }
