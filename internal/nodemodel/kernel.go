package nodemodel

import "tolerance/internal/dist"

// Bayes is the Appendix A belief recursion with the model constants it
// needs hoisted out: pA and the survival and update complements of the
// predictive belief. It is the only product spelling of the node
// controller's filter; Params.UpdateBelief is its test oracle. Build it
// with Params.Bayes. It allocates nothing and is safe to copy and share.
type Bayes struct {
	pa, survH, survC, stayC float64
}

// Bayes builds the hoisted belief recursion of p.
func (p Params) Bayes() Bayes {
	return Bayes{pa: p.PA, survH: 1 - p.PC1, survC: 1 - p.PC2, stayC: 1 - p.PU}
}

// Update returns the belief after action a from belief b and an
// observation of likelihoods zc = Z(o|C) and zh = Z(o|H): Params.UpdateBelief
// with the likelihood pair looked up by the caller, bit for bit. Zero
// likelihoods carry the belief over, and the result is clamped to [0, 1].
func (m *Bayes) Update(b float64, a Action, zc, zh float64) float64 {
	pred := m.pa
	if a != Recover {
		wh := (1 - b) * m.survH
		wc := b * m.survC
		surv := wh + wc
		if surv <= 0 {
			pred = b
		} else {
			pred = (wh*m.pa + wc*m.stayC) / surv
		}
	}
	num := zc * pred
	den := num + zh*(1-pred)
	if den <= 0 {
		return b
	}
	return min(1, max(0, num/den))
}

// Kernel is a node model's per-step arithmetic with everything that does
// not depend on the step hoisted out: the cumulative transition rows, the
// two likelihood vectors, the belief recursion (the embedded Bayes) and the
// cost table. Build it once per rollout or evaluation with Params.Kernel;
// it is read-only afterwards, so concurrent episodes may share one.
//
// Every method performs the same float operations in the same order as the
// Params method it replaces (SampleTransition, SampleObservation,
// Posterior, Cost, and Update on Likelihoods for UpdateBelief), which stay
// its test oracles, so an episode run through a Kernel is bit-identical to
// one run through Params. The samplers take their uniform as an argument
// and draw nothing themselves; actions must be Wait or Recover.
type Kernel struct {
	Bayes
	// cum[s][a] holds the first two partial sums of Transition(s, a), as
	// SampleTransition accumulates them: u below cum[s][a][0] moves to
	// Healthy, below cum[s][a][1] to Compromised, and anything else crashes.
	cum [3][2][2]float64
	// lik[o] is {Z(o|C), Z(o|H)}.
	lik    [][2]float64
	cost   [3][2]float64
	zh, zc *dist.Categorical
}

// Kernel builds the hoisted per-step form of p. p must be valid.
func (p Params) Kernel() Kernel {
	k := Kernel{
		Bayes: p.Bayes(),
		lik:   make([][2]float64, p.NumObs()),
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

// Likelihoods returns {Z(o|C), Z(o|H)}, zero outside the support: the
// pair Update takes.
func (k *Kernel) Likelihoods(o int) (zc, zh float64) {
	if uint(o) < uint(len(k.lik)) {
		l := &k.lik[o]
		return l[0], l[1]
	}
	return 0, 0
}

// Posterior is Params.Posterior.
func (k *Kernel) Posterior(prior float64, o int) float64 {
	zc, zh := k.Likelihoods(o)
	num := zc * prior
	den := num + zh*(1-prior)
	if den <= 0 {
		return prior
	}
	return num / den
}

// Cost is Params.Cost.
func (k *Kernel) Cost(s State, a Action) float64 { return k.cost[s][a] }
