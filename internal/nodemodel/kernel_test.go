package nodemodel

import (
	"math"
	"math/rand"
	"testing"
)

// fixedSource is a rand.Source whose Int63 is always the same value, so a
// rand.Rand over it yields one chosen uniform from Float64.
type fixedSource int64

func (s fixedSource) Int63() int64 { return int64(s) }
func (fixedSource) Seed(int64)     {}

// uniformRng returns an rng whose Float64 is u, and false when u is not a
// value rand.Rand.Float64 can return (outside [0, 1) or not a multiple of
// 2^-63).
func uniformRng(u float64) (*rand.Rand, bool) {
	v := u * (1 << 63)
	if !(u >= 0 && u < 1) || v != math.Trunc(v) {
		return nil, false
	}
	return rand.New(fixedSource(int64(v))), true
}

// randomKernelParams draws a valid model whose probabilities are often
// exactly 0 or 1, with an alert support of 1 to 12 outcomes, some of
// probability zero.
func randomKernelParams(rng *rand.Rand) Params {
	prob := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		default:
			return rng.Float64()
		}
	}
	n := 1 + rng.Intn(12)
	return Params{
		PA: prob(), PC1: prob(), PC2: prob(), PU: prob(),
		Eta:          1 + 4*rng.Float64(),
		ZHealthy:     randomCategorical(rng, n, true),
		ZCompromised: randomCategorical(rng, n, true),
	}
}

// edges returns each value of xs with its two float64 neighbours.
func edges(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	return out
}

// TestKernelSamplersMatchParams holds the kernel's samplers to
// Params.SampleTransition and Params.SampleObservation for uniforms placed
// on and next to every CDF edge, and for random ones.
func TestKernelSamplersMatchParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		p := randomKernelParams(rng)
		k := p.Kernel()
		for s := Healthy; s <= Crashed; s++ {
			for a := Wait; a <= Recover; a++ {
				row := p.Transition(s, a)
				us := edges(row[0], row[0]+row[1], 0)
				for i := 0; i < 8; i++ {
					us = append(us, rng.Float64())
				}
				for _, u := range us {
					src, ok := uniformRng(u)
					if !ok {
						continue
					}
					checked++
					if got, want := k.SampleTransition(s, a, u), p.SampleTransition(src, s, a); got != want {
						t.Fatalf("trial %d %+v: SampleTransition(%v, %v, %v) = %v, Params says %v",
							trial, p, s, a, u, got, want)
					}
				}
			}
			var cdf []float64
			acc := 0.0
			for _, pr := range p.Observation(s).Probs() {
				acc += pr
				cdf = append(cdf, acc)
			}
			us := edges(cdf...)
			for i := 0; i < 8; i++ {
				us = append(us, rng.Float64())
			}
			for _, u := range us {
				src, ok := uniformRng(u)
				if !ok {
					continue
				}
				checked++
				if got, want := k.SampleObservation(s, u), p.SampleObservation(src, s); got != want {
					t.Fatalf("trial %d: SampleObservation(%v, %v) = %d, Params says %d", trial, s, u, got, want)
				}
			}
		}
	}
	if checked < 20000 {
		t.Fatalf("only %d uniforms checked", checked)
	}
}

// TestKernelBeliefMatchesParams holds the belief recursion (Bayes.Update on
// the kernel's Likelihoods pair), posterior and cost to Params' bit for bit,
// the sign of zero included, over random models whose probabilities are
// often exactly 0 or 1, beliefs on, inside and outside [0, 1], and
// observations inside and outside the support (zero likelihood pairs).
func TestKernelBeliefMatchesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		p := randomKernelParams(rng)
		if trial%7 == 0 {
			// A -0 prior makes every post-recovery posterior -0, which the
			// clamp must return as +0, as Params' math.Max does.
			p.PA = math.Copysign(0, -1)
		}
		checkKernelBelief(t, rng, p)
	}
	// The emulation's inputs: probabilities inside (0, 1) and dense
	// likelihood rows, with a zero pair every fifth model.
	rng = rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := DefaultParams()
		p.PA, p.PC1, p.PC2, p.PU = rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		zh, zc := make([]float64, 7), make([]float64, 7)
		for o := range zh {
			zh[o], zc[o] = rng.Float64(), rng.Float64()
		}
		if trial%5 == 0 {
			o := rng.Intn(len(zh))
			zh[o], zc[o] = 0, 0
		}
		p.ZHealthy, p.ZCompromised = normalised(zh), normalised(zc)
		checkKernelBelief(t, rng, p)
	}
}

// checkKernelBelief compares p's kernel with p on every action, on
// observations inside and two either side of the support, and on a set of
// beliefs that reaches UpdateBelief's clamp.
func checkKernelBelief(t *testing.T, rng *rand.Rand, p Params) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	k := p.Kernel()
	beliefs := []float64{0, math.Copysign(0, -1), 1, p.PA, rng.Float64(), rng.Float64(), 1e-300, -0.25, 1.25}
	for _, b := range beliefs {
		for o := -2; o < p.NumObs()+2; o++ {
			zc, zh := k.Likelihoods(o)
			if !same(zc, p.ZCompromised.Prob(o)) || !same(zh, p.ZHealthy.Prob(o)) {
				t.Fatalf("%+v: Likelihoods(%d) = %v, %v", p, o, zc, zh)
			}
			for a := Wait; a <= Recover; a++ {
				if got, want := k.Update(b, a, zc, zh), p.UpdateBelief(b, a, o); !same(got, want) {
					t.Fatalf("%+v: Update(%v, %v, %v, %v) = %v, UpdateBelief(o = %d) says %v",
						p, b, a, zc, zh, got, o, want)
				}
			}
			if got, want := k.Posterior(b, o), p.Posterior(b, o); !same(got, want) {
				t.Fatalf("%+v: Posterior(%v, %d) = %v, Params says %v", p, b, o, got, want)
			}
		}
	}
	for s := Healthy; s <= Crashed; s++ {
		for a := Wait; a <= Recover; a++ {
			if got, want := k.Cost(s, a), p.Cost(s, a); !same(got, want) {
				t.Fatalf("%+v: Cost(%v, %v) = %v, Params says %v", p, s, a, got, want)
			}
		}
	}
}

// TestKernelZeroAllocs guards the step: a kernel's samplers and belief
// update, and a standalone Bayes on a looked-up likelihood pair (the
// emulation's node controller), allocate nothing.
func TestKernelZeroAllocs(t *testing.T) {
	p := DefaultParams()
	k := p.Kernel()
	m := p.Bayes()
	b := 0.3
	allocs := testing.AllocsPerRun(100, func() {
		s := k.SampleTransition(Compromised, Wait, 0.5)
		zc, zh := k.Likelihoods(k.SampleObservation(s, 0.7))
		b = k.Update(b, Wait, zc, zh)
		b = m.Update(b, Recover, 0.6, 0.3)
	})
	if allocs != 0 {
		t.Fatalf("kernel step allocates %v times", allocs)
	}
}
