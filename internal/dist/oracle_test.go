package dist

import (
	"math"
	"math/rand"
)

// The reference forms the production samplers replaced, kept as oracles:
// written over *rand.Rand, with every transcendental evaluated per call and
// the inverse CDF found by binary search. The draw-identity tests hold the
// production code to them draw for draw.

// newOracleRand returns a math/rand.Rand over its own SplitMix64 state —
// the generator the emulation drew from before Stream — positioned at seed.
// rand.Rand takes only raw Int63/Uint64 outputs from its source, so every
// Float64 and Intn it returns is math/rand's own arithmetic, not Stream's.
func newOracleRand(seed int64) *rand.Rand {
	s := &Stream{}
	s.Seed(seed)
	return rand.New(s)
}

// searchQuantile is the binary search Categorical.Sample used: the smallest
// i with cdf[i] >= u, midpoints by unsigned halving.
func searchQuantile(cdf []float64, u float64) int {
	i, j := 0, len(cdf)
	for i < j {
		h := int(uint(i+j) >> 1)
		if cdf[h] < u {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// SampleBinomial draws a Binomial(n, p) count by CDF inversion with a
// single uniform per chunk, splitting trial counts whose (1-p)^n would
// underflow by binomial additivity.
func SampleBinomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 || math.IsNaN(p) {
		return 0
	}
	if p >= 1 {
		return n
	}
	q := 1 - p
	chunk := n
	if lq := math.Log(q); float64(n)*lq < -700 {
		chunk = int(-700 / lq)
		if chunk < 1 {
			chunk = 1
		}
	}
	k := 0
	for n > 0 {
		m := n
		if m > chunk {
			m = chunk
		}
		u := rng.Float64()
		pk := math.Pow(q, float64(m))
		cdf := pk
		j := 0
		for u >= cdf && j < m {
			pk *= float64(m-j) / float64(j+1) * (p / q)
			j++
			cdf += pk
		}
		k += j
		n -= m
	}
	return k
}

// SamplePoisson draws a Poisson(lambda) count with Knuth's product-of-
// uniforms method, splitting rates above 30 by Poisson additivity.
func SamplePoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 || math.IsNaN(lambda) {
		return 0
	}
	knuth := func(lambda float64) int {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	const chunk = 30
	n := 0
	for lambda > chunk {
		n += knuth(chunk)
		lambda -= chunk
	}
	return n + knuth(lambda)
}
