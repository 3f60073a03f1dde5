package opt

import (
	"fmt"
	"math"
)

// oracleGP is the Gaussian process BO used up to commit 1e72cfd, kept as
// the oracle of gp: fit builds the kernel matrix and its Cholesky factor
// from scratch on every call (retrying once with 1e-6 added to the
// diagonal), and predict allocates k* and L⁻¹k* for every candidate.
type oracleGP struct {
	lengthScale float64
	signalVar   float64
	noiseVar    float64

	xs    [][]float64
	ys    []float64
	yMean float64
	chol  [][]float64 // lower-triangular Cholesky factor of K + noise I
	alpha []float64   // (K + noise I)^{-1} (y - mean)
}

func newOracleGP(lengthScale, signalVar, noiseVar float64) *oracleGP {
	return &oracleGP{lengthScale: lengthScale, signalVar: signalVar, noiseVar: noiseVar}
}

// matern52 evaluates the Matérn-5/2 kernel.
func (g *oracleGP) matern52(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	r := math.Sqrt(d2) / g.lengthScale
	s5 := math.Sqrt(5) * r
	return g.signalVar * (1 + s5 + 5*r*r/3) * math.Exp(-s5)
}

// fit conditions the GP on the given observations.
func (g *oracleGP) fit(xs [][]float64, ys []float64) error {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return fmt.Errorf("opt: gp fit with %d xs, %d ys", n, len(ys))
	}
	g.xs = xs
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)
	g.yMean = mean
	g.ys = ys

	k := make([][]float64, n)
	for i := 0; i < n; i++ {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := g.matern52(xs[i], xs[j])
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += g.noiseVar
	}
	chol, err := cholesky(k)
	if err != nil {
		// Add jitter and retry once.
		for i := 0; i < n; i++ {
			k[i][i] += 1e-6
		}
		chol, err = cholesky(k)
		if err != nil {
			return err
		}
	}
	g.chol = chol

	centered := make([]float64, n)
	for i, y := range ys {
		centered[i] = y - mean
	}
	g.alpha = cholSolve(chol, centered)
	return nil
}

// predict returns the posterior mean and variance at x.
func (g *oracleGP) predict(x []float64) (mean, variance float64) {
	n := len(g.xs)
	kStar := make([]float64, n)
	for i := 0; i < n; i++ {
		kStar[i] = g.matern52(x, g.xs[i])
	}
	mean = g.yMean
	for i := 0; i < n; i++ {
		mean += kStar[i] * g.alpha[i]
	}
	// v = L^{-1} k*; variance = k(x,x) - v.v.
	v := forwardSolve(g.chol, kStar)
	variance = g.matern52(x, x)
	for _, vi := range v {
		variance -= vi * vi
	}
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// cholesky returns the lower-triangular factor L with A = L L^T.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, errNotPSD
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// forwardSolve solves L x = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		v := b[i]
		for j := 0; j < i; j++ {
			v -= l[i][j] * x[j]
		}
		x[i] = v / l[i][i]
	}
	return x
}

// backSolve solves L^T x = b for lower-triangular L.
func backSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := b[i]
		for j := i + 1; j < n; j++ {
			v -= l[j][i] * x[j]
		}
		x[i] = v / l[i][i]
	}
	return x
}

// cholSolve solves (L L^T) x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	return backSolve(l, forwardSolve(l, b))
}

// normalize returns ys standardized to zero mean, unit variance.
func normalize(ys []float64) []float64 {
	n := float64(len(ys))
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= n
	variance := 0.0
	for _, y := range ys {
		d := y - mean
		variance += d * d
	}
	variance /= n
	std := math.Sqrt(variance)
	if std < 1e-12 {
		std = 1
	}
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = (y - mean) / std
	}
	return out
}
