// Package dist provides the discrete probability distributions used across
// the reproduction: categorical distributions over alert counts (the
// observation spaces of eq. 3), the Beta-Binomial family of Table 8, the
// binomial pmf of the replication CMDP (eq. 8), empirical maximum-likelihood
// fits (§VIII-A, Ẑ with M samples), Kullback-Leibler divergences (Fig 14,
// Fig 18), and the elementary samplers of the emulation.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadDistribution is returned for invalid distribution parameters.
var ErrBadDistribution = errors.New("dist: bad distribution")

// quantileBuckets is the size of Categorical's guide table. A power of two,
// so u*quantileBuckets is exact and its integer part is the bucket of u.
const quantileBuckets = 64

// Categorical is a probability distribution over {0, ..., n-1}.
type Categorical struct {
	probs []float64
	cdf   []float64
	// guide[b] is the quantile of b/quantileBuckets (capped at 255): where
	// the scan for any u in bucket b starts. An array, not a slice, so the
	// table costs no allocation of its own.
	guide [quantileBuckets]uint8
}

// NewCategorical validates and normalizes a probability vector.
func NewCategorical(probs []float64) (*Categorical, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("%w: empty support", ErrBadDistribution)
	}
	sum := 0.0
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("%w: prob[%d] = %v", ErrBadDistribution, i, p)
		}
		sum += p
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: zero total mass", ErrBadDistribution)
	}
	c := &Categorical{
		probs: make([]float64, len(probs)),
		cdf:   make([]float64, len(probs)),
	}
	acc := 0.0
	for i, p := range probs {
		c.probs[i] = p / sum
		acc += c.probs[i]
		c.cdf[i] = acc
	}
	c.cdf[len(c.cdf)-1] = 1
	i := 0
	for b := range c.guide {
		for c.cdf[i] < float64(b)/quantileBuckets {
			i++
		}
		c.guide[b] = uint8(min(i, math.MaxUint8))
	}
	return c, nil
}

// MustCategorical is NewCategorical panicking on error; for literals in
// tests and defaults.
func MustCategorical(probs []float64) *Categorical {
	c, err := NewCategorical(probs)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the support size.
func (c *Categorical) Len() int { return len(c.probs) }

// Prob returns P[X = o], zero outside the support.
func (c *Categorical) Prob(o int) float64 {
	if o < 0 || o >= len(c.probs) {
		return 0
	}
	return c.probs[o]
}

// Probs returns a copy of the probability vector.
func (c *Categorical) Probs() []float64 {
	return append([]float64(nil), c.probs...)
}

// Mean returns E[X].
func (c *Categorical) Mean() float64 {
	m := 0.0
	for o, p := range c.probs {
		m += float64(o) * p
	}
	return m
}

// Quantile returns the smallest i with cdf[i] >= u, the inverse CDF at u in
// [0, 1) (u < 0 answers as 0, u >= 1 or NaN as the last index). The guide
// table puts the scan at the quantile of the bucket's lower edge, which is
// never past the answer, so the result is the binary search's for every u
// at O(1) expected cost and without its unpredictable branches.
func (c *Categorical) Quantile(u float64) int {
	i := 0
	if b := uint(int(u * quantileBuckets)); b < quantileBuckets {
		i = int(c.guide[b])
	} else if !(u < 0) {
		return len(c.cdf) - 1
	}
	for c.cdf[i] < u {
		i++
	}
	return i
}

// Sample draws one value by inverse-CDF lookup (one rng.Float64 per draw).
func (c *Categorical) Sample(rng *rand.Rand) int { return c.Quantile(rng.Float64()) }

// BetaBinomial is the BetaBin(n, alpha, beta) distribution over {0, ..., n}
// — the observation family of the paper's numerical evaluation (Table 8).
type BetaBinomial struct {
	n           int
	alpha, beta float64
}

// NewBetaBinomial validates the parameters.
func NewBetaBinomial(n int, alpha, beta float64) (*BetaBinomial, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: beta-binomial n = %d", ErrBadDistribution, n)
	}
	if alpha <= 0 || beta <= 0 || math.IsNaN(alpha) || math.IsNaN(beta) {
		return nil, fmt.Errorf("%w: beta-binomial shape (%v, %v)", ErrBadDistribution, alpha, beta)
	}
	return &BetaBinomial{n: n, alpha: alpha, beta: beta}, nil
}

// MustBetaBinomial is NewBetaBinomial panicking on error.
func MustBetaBinomial(n int, alpha, beta float64) *BetaBinomial {
	b, err := NewBetaBinomial(n, alpha, beta)
	if err != nil {
		panic(err)
	}
	return b
}

// Prob returns the pmf P[X = k] = C(n,k) B(k+alpha, n-k+beta) / B(alpha, beta).
func (b *BetaBinomial) Prob(k int) float64 {
	if k < 0 || k > b.n {
		return 0
	}
	ln := lnChoose(b.n, k) +
		lnBeta(float64(k)+b.alpha, float64(b.n-k)+b.beta) -
		lnBeta(b.alpha, b.beta)
	return math.Exp(ln)
}

// Categorical tabulates the pmf over {0, ..., n}.
func (b *BetaBinomial) Categorical() *Categorical {
	probs := make([]float64, b.n+1)
	for k := range probs {
		probs[k] = b.Prob(k)
	}
	return MustCategorical(probs)
}

// Binomial returns the pmf P[Binomial(n, p) = k].
//
//tolerance:testonly oracle: the per-entry pmf the binomial kernels are held to
func Binomial(n int, p float64, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	switch {
	case p <= 0:
		if k == 0 {
			return 1
		}
		return 0
	case p >= 1:
		if k == n {
			return 1
		}
		return 0
	}
	ln := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(ln)
}

// binomialInvWalk is BinomialSampler's CDF walk: one uniform, then the pmf
// recurrence P[k+1] = P[k] (n-k)/(k+1) p/q from P[X = 0] = q0 until the
// running CDF passes u, with the fixed odds ratio pq = p/q. The recurrence
// term is evaluated as (float64(n-k) / float64(k+1)) * pq — that exact
// expression (and rounding) is part of the draw contract.
func binomialInvWalk(rng *Stream, n int, q0, pq float64) int {
	u := rng.Float64()
	pk := q0
	cdf := pk
	k := 0
	for u >= cdf && k < n {
		pk *= float64(n-k) / float64(k+1) * pq
		k++
		cdf += pk
	}
	return k
}

// binomialPowWindow bounds the q^n memo of BinomialSampler: trial counts
// below the window hit a precomputed table, larger ones fall back to a
// direct math.Pow (same value, just not cached), so the sampler never
// allocates after construction.
const binomialPowWindow = 1024

// BinomialSampler draws Binomial(n, p) counts for a fixed success
// probability p and varying n — the emulation's per-step session-departure
// draw, where p = 1/mu is a scenario constant but n is the fluctuating
// session count. The count comes by CDF inversion with a single uniform per
// chunk (binomialInvWalk), at O(E[X]) arithmetic and O(1 + n p / 700)
// draws. Trial counts large enough that q^n would underflow (below e^-700
// ~ 1e-304) are split by binomial additivity, so the sampler is exact at
// any n. The per-call transcendentals are hoisted: log q for the underflow
// test is computed once, and q^n is memoized per trial count in a
// fixed-size window. Which uniforms are consumed and which count they give
// is a byte contract (the emulation's records depend on it), pinned by
// TestBinomialSamplerDrawIdentical. The zero value is unusable; construct
// with Reset. Not safe for concurrent use.
type BinomialSampler struct {
	p, q     float64
	pq       float64 // p / q, the recurrence odds ratio
	lq       float64 // log q, for the underflow-chunk test
	chunkCap int     // int(-700 / log q): the largest safe chunk
	always0  bool    // p <= 0 (or NaN)
	always1  bool    // p >= 1: every trial succeeds
	// pow[n] = q^n, 0 = not yet computed. A fixed array rather than a
	// slice, so embedding the sampler (the emulation runner does) costs no
	// allocation of its own.
	pow [binomialPowWindow]float64
}

// Reset re-parameterizes the sampler for success probability p. The q^n
// memo is kept when p is unchanged (the common scenario-to-scenario case)
// and invalidated otherwise.
func (s *BinomialSampler) Reset(p float64) {
	if p != s.p || s.always0 || s.always1 {
		clear(s.pow[:])
	}
	s.p = p
	s.always0 = p <= 0 || math.IsNaN(p)
	s.always1 = p >= 1
	if s.always0 || s.always1 {
		return
	}
	s.q = 1 - p
	s.pq = s.p / s.q
	s.lq = math.Log(s.q)
	s.chunkCap = int(-700 / s.lq)
}

// qPow returns q^n, from the memo window when n fits.
func (s *BinomialSampler) qPow(n int) float64 {
	if n < len(s.pow) {
		if v := s.pow[n]; v != 0 {
			return v
		}
		v := math.Pow(s.q, float64(n))
		s.pow[n] = v
		return v
	}
	return math.Pow(s.q, float64(n))
}

// Sample draws a Binomial(n, p) count.
func (s *BinomialSampler) Sample(rng *Stream, n int) int {
	if n <= 0 || s.always0 {
		return 0
	}
	if s.always1 {
		return n
	}
	chunk := n
	if float64(n)*s.lq < -700 {
		chunk = s.chunkCap
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
		k += binomialInvWalk(rng, m, s.qPow(m), s.pq)
		n -= m
	}
	return k
}

// poissonKnuthL is Knuth's product-of-uniforms loop against a precomputed
// threshold l = exp(-lambda).
func poissonKnuthL(rng *Stream, l float64) int {
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

// PoissonSampler draws Poisson(lambda) counts for a fixed rate — the
// emulation's per-step session-arrival draw, where lambda is a scenario
// constant — with Knuth's product-of-uniforms method, splitting rates above
// 30 by Poisson additivity to keep the running product away from underflow.
// The exp(-lambda) thresholds are hoisted out of the per-step path. The
// chunk split, the uniforms consumed and the count they give are a byte
// contract, pinned by TestPoissonSamplerDrawIdentical. The zero value
// always samples 0; construct with Reset.
type PoissonSampler struct {
	chunks  int     // full size-30 chunks of the additivity split
	lFull   float64 // exp(-30)
	lRem    float64 // exp(-remainder), remainder by repeated subtraction
	always0 bool
}

// Reset re-parameterizes the sampler for rate lambda. The remainder of the
// chunk split is computed by repeated subtraction — its rounding is part of
// the draw contract.
func (s *PoissonSampler) Reset(lambda float64) {
	*s = PoissonSampler{}
	if lambda <= 0 || math.IsNaN(lambda) {
		s.always0 = true
		return
	}
	const chunk = 30
	for lambda > chunk {
		s.chunks++
		lambda -= chunk
	}
	s.lFull = math.Exp(-float64(chunk))
	s.lRem = math.Exp(-lambda)
}

// Sample draws a Poisson(lambda) count.
func (s *PoissonSampler) Sample(rng *Stream) int {
	if s.always0 {
		return 0
	}
	n := 0
	for i := 0; i < s.chunks; i++ {
		n += poissonKnuthL(rng, s.lFull)
	}
	return n + poissonKnuthL(rng, s.lRem)
}

// KLSmoothed returns the Kullback-Leibler divergence D_KL(p || q) in nats
// with the q-side probabilities floored at eps, so empirical distributions
// with empty cells yield a finite divergence (Fig 14, Fig 18).
func KLSmoothed(p, q *Categorical, eps float64) float64 {
	if p == nil || q == nil {
		return math.NaN()
	}
	if eps <= 0 {
		eps = 1e-12
	}
	d := 0.0
	n := p.Len()
	for o := 0; o < n; o++ {
		po := p.Prob(o)
		if po <= 0 {
			continue
		}
		qo := q.Prob(o)
		if qo < eps {
			qo = eps
		}
		d += po * math.Log(po/qo)
	}
	return d
}

// Empirical is a maximum-likelihood fit of a categorical distribution from
// samples (the Ẑ estimation of §VIII-A).
type Empirical struct {
	counts []int
	n      int
}

// FitEmpirical draws m samples from src and tabulates the MLE over
// {0, ..., support-1}. The source support must fit inside the target one.
func FitEmpirical(rng *rand.Rand, src *Categorical, support, m int) (*Empirical, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: nil source", ErrBadDistribution)
	}
	if support < src.Len() {
		return nil, fmt.Errorf("%w: support %d < source support %d",
			ErrBadDistribution, support, src.Len())
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: sample count %d", ErrBadDistribution, m)
	}
	e := &Empirical{counts: make([]int, support), n: m}
	for i := 0; i < m; i++ {
		e.counts[src.Sample(rng)]++
	}
	return e, nil
}

// Distribution returns the MLE categorical distribution (relative
// frequencies; cells with no samples have probability zero).
func (e *Empirical) Distribution() *Categorical {
	probs := make([]float64, len(e.counts))
	for i, c := range e.counts {
		probs[i] = float64(c) / float64(e.n)
	}
	return MustCategorical(probs)
}

// GoldenGamma is the SplitMix64 increment (2^64 / phi, odd): the stream
// separation constant every rng-stream derivation in the repo mixes with.
const GoldenGamma uint64 = 0x9e3779b97f4a7c15

// SplitMix64 is the SplitMix64 finalizer — the single canonical avalanche
// mix behind every derived rng stream (scenario seeds, the fit and
// workload streams, per-episode training streams, the worker-resident
// emulation source). Deriving all streams through one finalizer keeps the
// ROADMAP's stream-splitting policy one implementation, not several
// copies of three magic constants.
func SplitMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fingerprint hashes a float64 sequence bit-for-bit into a canonical
// 16-hex-digit FNV-1a digest. Model types use it to build strategy-cache
// keys: two parameter sets with equal fingerprints pose identical control
// problems.
func Fingerprint(values ...float64) string {
	return NewDigest().Floats(values).String()
}

// Digest is a running FNV-1a 64 hash, the digest Fingerprint spells in hex.
// Model types feed their fields into it one at a time, so a fingerprint
// needs no slice of the values; a cache that keys on the Digest itself needs
// no string either.
type Digest uint64

const (
	fnvOffset64 Digest = 14695981039346656037
	fnvPrime64  Digest = 1099511628211
)

// NewDigest returns the digest of the empty sequence.
func NewDigest() Digest { return fnvOffset64 }

// Float adds v's IEEE 754 bits, least significant byte first.
func (d Digest) Float(v float64) Digest {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		d ^= Digest(byte(bits))
		d *= fnvPrime64
		bits >>= 8
	}
	return d
}

// Floats adds every value of vs in order.
func (d Digest) Floats(vs []float64) Digest {
	for _, v := range vs {
		d = d.Float(v)
	}
	return d
}

// Bytes adds the bytes of b.
func (d Digest) Bytes(b []byte) Digest {
	for _, c := range b {
		d ^= Digest(c)
		d *= fnvPrime64
	}
	return d
}

// AppendHex appends the digest as 16 lowercase hex digits.
func (d Digest) AppendHex(dst []byte) []byte {
	const hexDigits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(d>>shift)&0xf])
	}
	return dst
}

// String returns the digest as 16 lowercase hex digits.
func (d Digest) String() string {
	var buf [16]byte
	return string(d.AppendHex(buf[:0]))
}

// lnChoose returns ln C(n, k).
func lnChoose(n, k int) float64 {
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	return lg(float64(n)+1) - lg(float64(k)+1) - lg(float64(n-k)+1)
}

// lnBeta returns ln B(x, y).
func lnBeta(x, y float64) float64 {
	lx, _ := math.Lgamma(x)
	ly, _ := math.Lgamma(y)
	lxy, _ := math.Lgamma(x + y)
	return lx + ly - lxy
}
