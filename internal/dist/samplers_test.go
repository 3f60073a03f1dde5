package dist

import (
	"math/rand"
	"sort"
	"testing"
)

// TestBinomialSamplerDrawIdentical is the hoisted sampler's contract: for
// any (p, n) and any stream position, BinomialSampler.Sample on a Stream
// must consume exactly the draws the SampleBinomial oracle consumes from a
// math/rand.Rand at the same position and return the identical value — the
// emulation's records depend on it, so this is draw-for-draw equality, not
// distributional equality.
func TestBinomialSamplerDrawIdentical(t *testing.T) {
	meta := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := meta.Float64()
		switch trial % 10 {
		case 0:
			p = 0
		case 1:
			p = 1
		case 2:
			p = 1e-6 // deep chunking regime: n*log(q) << -700 for large n
		}
		seed := meta.Int63()
		var s BinomialSampler
		s.Reset(p)
		rngA := newOracleRand(seed)
		var rngB Stream
		rngB.Seed(seed)
		for _, n := range []int{0, 1, 2, 7, 100, 1023, 1024, 5000} {
			want := SampleBinomial(rngA, n, p)
			got := s.Sample(&rngB, n)
			if got != want {
				t.Fatalf("p=%v n=%d: sampler %d, SampleBinomial %d", p, n, got, want)
			}
			// The streams must also stay aligned (same number of draws).
			if a, b := rngA.Float64(), rngB.Float64(); a != b {
				t.Fatalf("p=%v n=%d: rng streams diverged (%v vs %v)", p, n, a, b)
			}
		}
	}
}

// TestPoissonSamplerDrawIdentical pins PoissonSampler.Sample to the
// SamplePoisson oracle the same way: identical draws consumed, identical
// value, across the chunked (lambda > 30) and direct regimes.
func TestPoissonSamplerDrawIdentical(t *testing.T) {
	meta := rand.New(rand.NewSource(12))
	for _, lambda := range []float64{0, 0.3, 1, 12.5, 29.9, 30, 31, 75, 150.5} {
		var s PoissonSampler
		s.Reset(lambda)
		for trial := 0; trial < 50; trial++ {
			seed := meta.Int63()
			rngA := newOracleRand(seed)
			var rngB Stream
			rngB.Seed(seed)
			want := SamplePoisson(rngA, lambda)
			got := s.Sample(&rngB)
			if got != want {
				t.Fatalf("lambda=%v: sampler %d, SamplePoisson %d", lambda, got, want)
			}
			if a, b := rngA.Float64(), rngB.Float64(); a != b {
				t.Fatalf("lambda=%v: rng streams diverged (%v vs %v)", lambda, a, b)
			}
		}
	}
}

// TestCategoricalSampleMatchesSearchFloat64s pins Sample to the
// sort.SearchFloat64s form it started as: the smallest index with
// cdf[i] >= u, for the same uniform, on every draw.
func TestCategoricalSampleMatchesSearchFloat64s(t *testing.T) {
	meta := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		support := 1 + meta.Intn(12)
		weights := make([]float64, support)
		for i := range weights {
			weights[i] = meta.Float64()
		}
		weights[meta.Intn(support)] += 1 // keep the mass positive
		c := MustCategorical(weights)
		cdf := c.cdf
		seed := meta.Int63()
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		for d := 0; d < 200; d++ {
			want := sort.SearchFloat64s(cdf, rngA.Float64())
			got := c.Sample(rngB)
			if got != want {
				t.Fatalf("trial %d draw %d: Sample %d, SearchFloat64s %d (cdf %v)",
					trial, d, got, want, cdf)
			}
		}
	}
}
