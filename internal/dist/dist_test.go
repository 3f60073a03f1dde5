package dist

import (
	"math"
	"math/rand"
	"testing"
)

// TestBetaBinomialPinnedPMF pins the Table 8 observation models used by
// nodemodel.DefaultParams and internal/ids: Z(.|H) = BetaBin(10, 0.7, 3) and
// Z(.|C) = BetaBin(10, 1, 0.7).
func TestBetaBinomialPinnedPMF(t *testing.T) {
	h := MustBetaBinomial(10, 0.7, 3)
	c := MustBetaBinomial(10, 1, 0.7)
	pinned := []struct {
		k            int
		wantH, wantC float64
	}{
		{0, 0.349062066622, 0.065420560748},
		{1, 0.203619538863, 0.067443877059},
		{5, 0.051713874399, 0.079719520666},
		{9, 0.006250098843, 0.119848790967},
		{10, 0.002020865293, 0.171212558524},
	}
	for _, p := range pinned {
		if got := h.Prob(p.k); math.Abs(got-p.wantH) > 1e-9 {
			t.Errorf("BetaBin(10,0.7,3).Prob(%d) = %.12f, want %.12f", p.k, got, p.wantH)
		}
		if got := c.Prob(p.k); math.Abs(got-p.wantC) > 1e-9 {
			t.Errorf("BetaBin(10,1,0.7).Prob(%d) = %.12f, want %.12f", p.k, got, p.wantC)
		}
	}
	// The pmf must sum to one and match the analytic mean n*alpha/(alpha+beta).
	sum := 0.0
	for k := 0; k <= 10; k++ {
		sum += h.Prob(k)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pmf sums to %v", sum)
	}
	if got, want := h.Categorical().Mean(), 10*0.7/3.7; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// TestKLPinnedValues pins the divergences the ids package relies on: the
// Table 8 healthy/compromised pair and the container-1 profile of Table 4
// (support 32, shapes (0.8, 5) vs (3.2, 1.1)).
func TestKLPinnedValues(t *testing.T) {
	h := MustBetaBinomial(10, 0.7, 3).Categorical()
	c := MustBetaBinomial(10, 1, 0.7).Categorical()
	if got, want := KLSmoothed(h, c, 1e-9), 0.803109413534; math.Abs(got-want) > 1e-9 {
		t.Errorf("D_KL(Table 8 H || C) = %.12f, want %.12f", got, want)
	}
	ph := MustBetaBinomial(31, 0.8, 5).Categorical()
	pc := MustBetaBinomial(31, 3.2, 1.1).Categorical()
	if got, want := KLSmoothed(ph, pc, 1e-9), 4.064362376635; math.Abs(got-want) > 1e-9 {
		t.Errorf("D_KL(container-1 H || C) = %.12f, want %.12f", got, want)
	}
	// Self-divergence is zero; divergence is asymmetric and positive.
	if got := KLSmoothed(h, h, 1e-9); math.Abs(got) > 1e-12 {
		t.Errorf("D_KL(p || p) = %v", got)
	}
	if KLSmoothed(c, h, 1e-9) <= 0 {
		t.Error("reverse divergence not positive")
	}
}

func TestBetaBinomialValidation(t *testing.T) {
	for _, bad := range []struct {
		n           int
		alpha, beta float64
	}{{0, 1, 1}, {10, 0, 1}, {10, 1, 0}, {10, -1, 1}, {10, math.NaN(), 1}} {
		if _, err := NewBetaBinomial(bad.n, bad.alpha, bad.beta); err == nil {
			t.Errorf("NewBetaBinomial(%d, %v, %v) should fail", bad.n, bad.alpha, bad.beta)
		}
	}
}

func TestBinomialPMF(t *testing.T) {
	// Closed form: C(10,4) 0.3^4 0.7^6.
	want := 210 * math.Pow(0.3, 4) * math.Pow(0.7, 6)
	if got := Binomial(10, 0.3, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("Binomial(10, 0.3, 4) = %v, want %v", got, want)
	}
	sum := 0.0
	for k := 0; k <= 20; k++ {
		sum += Binomial(20, 0.37, k)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("binomial pmf sums to %v", sum)
	}
	// Edge cases.
	if Binomial(5, 0, 0) != 1 || Binomial(5, 0, 1) != 0 {
		t.Error("p = 0 edge case")
	}
	if Binomial(5, 1, 5) != 1 || Binomial(5, 1, 4) != 0 {
		t.Error("p = 1 edge case")
	}
	if Binomial(5, 0.5, 6) != 0 || Binomial(5, 0.5, -1) != 0 {
		t.Error("out-of-range k")
	}
}

func TestCategoricalNormalizationAndSampling(t *testing.T) {
	c := MustCategorical([]float64{2, 1, 1})
	if got := c.Prob(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Prob(0) = %v after normalization", got)
	}
	if c.Prob(-1) != 0 || c.Prob(3) != 0 {
		t.Error("out-of-support probability not zero")
	}
	if got, want := c.Mean(), 0.25+2*0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	counts := make([]int, c.Len())
	for i := 0; i < n; i++ {
		counts[c.Sample(rng)]++
	}
	for o := 0; o < c.Len(); o++ {
		got := float64(counts[o]) / n
		if math.Abs(got-c.Prob(o)) > 0.01 {
			t.Errorf("empirical P(%d) = %v, want %v", o, got, c.Prob(o))
		}
	}
	for _, bad := range [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}} {
		if _, err := NewCategorical(bad); err == nil {
			t.Errorf("NewCategorical(%v) should fail", bad)
		}
	}
}

func TestFitEmpiricalConverges(t *testing.T) {
	src := MustBetaBinomial(31, 0.8, 5).Categorical()
	rng := rand.New(rand.NewSource(3))
	fit, err := FitEmpirical(rng, src, 32, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if fit.n != 50000 {
		t.Errorf("samples = %d", fit.n)
	}
	if got := KLSmoothed(src, fit.Distribution(), 1e-9); got > 0.02 {
		t.Errorf("MLE divergence %v at 50k samples", got)
	}
	total := 0
	for _, c := range fit.counts {
		total += c
	}
	if total != 50000 {
		t.Errorf("counts sum to %d", total)
	}
	if _, err := FitEmpirical(rng, src, 32, 0); err == nil {
		t.Error("m = 0 should fail")
	}
	if _, err := FitEmpirical(rng, src, 8, 10); err == nil {
		t.Error("support smaller than source should fail")
	}
	if _, err := FitEmpirical(rng, nil, 8, 10); err == nil {
		t.Error("nil source should fail")
	}
}

func TestSamplePoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lambda := range []float64{0.5, 4, 20, 100} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(SamplePoisson(rng, lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("lambda = %v: empirical mean %v", lambda, mean)
		}
	}
	if SamplePoisson(rng, 0) != 0 || SamplePoisson(rng, -1) != 0 {
		t.Error("nonpositive rate should give 0")
	}
}

// TestSampleBinomial checks the one-uniform inversion sampler: edge
// cases, determinism, and agreement of the first two moments with
// Binomial(n, p) across the emulation's operating range.
func TestSampleBinomial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if SampleBinomial(rng, 0, 0.5) != 0 || SampleBinomial(rng, -3, 0.5) != 0 {
		t.Error("n <= 0 should give 0")
	}
	if SampleBinomial(rng, 10, 0) != 0 || SampleBinomial(rng, 10, -1) != 0 {
		t.Error("p <= 0 should give 0")
	}
	if SampleBinomial(rng, 10, 1) != 10 || SampleBinomial(rng, 10, 1.5) != 10 {
		t.Error("p >= 1 should give n")
	}
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if SampleBinomial(r1, 80, 0.25) != SampleBinomial(r2, 80, 0.25) {
			t.Fatal("sampler not deterministic for equal rng states")
		}
	}
	// 20000 trials at p = 0.04 drives (1-p)^n into float64 underflow: the
	// sampler must split by additivity rather than degenerate to n.
	bigSum := 0.0
	const bigDraws = 2000
	for i := 0; i < bigDraws; i++ {
		bigSum += float64(SampleBinomial(rng, 20000, 0.04))
	}
	if mean, want := bigSum/bigDraws, 20000*0.04; math.Abs(mean-want) > 0.05*want {
		t.Errorf("n=20000 p=0.04: empirical mean %v, want ~%v (underflow regression)", mean, want)
	}
	for _, tc := range []struct {
		n int
		p float64
	}{{80, 0.25}, {10, 0.5}, {200, 0.04}, {5, 0.9}} {
		const draws = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < draws; i++ {
			v := float64(SampleBinomial(rng, tc.n, tc.p))
			if v < 0 || v > float64(tc.n) {
				t.Fatalf("n=%d p=%v: draw %v out of range", tc.n, tc.p, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		wantMean := float64(tc.n) * tc.p
		wantVar := wantMean * (1 - tc.p)
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.05 {
			t.Errorf("n=%d p=%v: empirical mean %v, want %v", tc.n, tc.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.1 {
			t.Errorf("n=%d p=%v: empirical variance %v, want %v", tc.n, tc.p, variance, wantVar)
		}
	}
}

// TestSampleBernoulli: the stream's Bernoulli draw is certain outside
// (0, 1) and consumes no draw there, and hits at rate p inside.
func TestSampleBernoulli(t *testing.T) {
	var s, ref Stream
	s.Seed(6)
	ref.Seed(6)
	if s.Bernoulli(0) || !s.Bernoulli(1) || s.Bernoulli(-0.5) || !s.Bernoulli(2) {
		t.Error("edge probabilities")
	}
	if s.Uint64() != ref.Uint64() {
		t.Error("an edge probability consumed a draw")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.3) > 0.01 {
		t.Errorf("empirical p = %v", got)
	}
}
