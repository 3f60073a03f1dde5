package opt

import (
	"errors"
	"fmt"
	"math"
)

// errNotPSD is returned when the kernel matrix cannot be factorized.
var errNotPSD = errors.New("opt: kernel matrix not positive definite")

// jitter is added to every diagonal entry of the kernel matrix once the
// plain matrix fails to factorize.
const jitter = 1e-6

// exitCheckRows is how many rows of the forward solve lcb runs between two
// tests of whether a candidate can still win.
const exitCheckRows = 8

// gp is an exact Gaussian-process regressor with a Matérn-5/2 kernel, the
// surrogate model of the paper's Bayesian-optimization baseline (Table 8:
// Matérn 2.5 kernel, LCB acquisition).
//
// Its Cholesky factor grows with the point set. Row i of the
// Cholesky–Banachiewicz factorisation reads only the kernel entries of
// point i and the factor's rows above it, so conditioning on one more
// point leaves every old row as it was and costs one new row: n kernel
// evaluations and one forward substitution. A point set that is not an
// extension of the last one needs reset first.
type gp struct {
	lengthScale float64
	signalVar   float64
	noiseVar    float64

	xs    [][]float64
	yMean float64
	// chol is the lower-triangular factor of K + noise I (+ jitter I once
	// plainFailRow is set), packed by rows: row i starts at i(i+1)/2.
	// Rows 0 to rows-1 are computed.
	chol []float64
	rows int
	// plainFailRow is the row at which the factor without jitter failed,
	// or -1. The rows above it never change while the point set grows, so
	// every later fit would fail there too and grows the jittered factor
	// instead. jitterFailRow is the row at which that failed as well, or
	// -1; every later fit then fails.
	plainFailRow  int
	jitterFailRow int
	alpha         []float64 // (K + noise I)^{-1} (y - mean)
	w             []float64 // lcb's k*, overwritten by L^{-1} k*
}

// newGP returns a gp whose buffers hold capacity points without growing.
func newGP(lengthScale, signalVar, noiseVar float64, capacity int) *gp {
	return &gp{
		lengthScale:   lengthScale,
		signalVar:     signalVar,
		noiseVar:      noiseVar,
		chol:          make([]float64, 0, capacity*(capacity+1)/2),
		plainFailRow:  -1,
		jitterFailRow: -1,
		alpha:         make([]float64, 0, capacity),
		w:             make([]float64, 0, capacity),
	}
}

// reset forgets the factor: the next fit conditions on a new point set.
func (g *gp) reset() {
	g.rows, g.plainFailRow, g.jitterFailRow = 0, -1, -1
}

// matern52 evaluates the Matérn-5/2 kernel.
func (g *gp) matern52(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	r := math.Sqrt(d2) / g.lengthScale
	s5 := math.Sqrt(5) * r
	return g.signalVar * (1 + s5 + 5*r*r/3) * math.Exp(-s5)
}

// fit conditions the GP on the given observations. Unless reset was called
// since the last fit, xs must begin with the points that fit saw.
func (g *gp) fit(xs [][]float64, ys []float64) error {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return fmt.Errorf("opt: gp fit with %d xs, %d ys", n, len(ys))
	}
	g.xs = xs
	if g.jitterFailRow >= 0 {
		return errNotPSD
	}
	g.chol = grow(g.chol, n*(n+1)/2)
	for g.rows < n {
		if g.factorRow(g.rows) {
			g.rows++
			continue
		}
		if g.plainFailRow >= 0 {
			g.jitterFailRow = g.rows
			return errNotPSD
		}
		g.plainFailRow = g.rows
		g.rows = 0
	}

	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)
	g.yMean = mean
	// α = L^{-T} L^{-1} (y − mean), both substitutions in place.
	g.alpha = grow(g.alpha, n)
	a := g.alpha
	for i, y := range ys {
		a[i] = y - mean
	}
	off := 0
	for i := 0; i < n; i++ {
		row := g.chol[off : off+i+1]
		v := a[i]
		for j := 0; j < i; j++ {
			v -= row[j] * a[j]
		}
		a[i] = v / row[i]
		off += i + 1
	}
	for i := n - 1; i >= 0; i-- {
		v := a[i]
		for j := i + 1; j < n; j++ {
			v -= g.chol[j*(j+1)/2+i] * a[j]
		}
		a[i] = v / g.chol[i*(i+1)/2+i]
	}
	return nil
}

// factorRow computes row i of the factor from point i's kernel entries and
// the rows above it, with the jitter once the plain factor has failed. It
// reports false when the row's pivot is not positive.
func (g *gp) factorRow(i int) bool {
	off := i * (i + 1) / 2
	row := g.chol[off : off+i+1]
	xi := g.xs[i]
	rj := 0
	for j := 0; j < i; j++ {
		sum := g.matern52(xi, g.xs[j])
		lj := g.chol[rj : rj+j+1]
		for k := 0; k < j; k++ {
			sum -= row[k] * lj[k]
		}
		row[j] = sum / lj[j]
		rj += j + 1
	}
	sum := g.matern52(xi, xi) + g.noiseVar
	if g.plainFailRow >= 0 {
		sum += jitter
	}
	for k := 0; k < i; k++ {
		sum -= row[k] * row[k]
	}
	if sum <= 0 {
		return false
	}
	row[i] = math.Sqrt(sum)
	return true
}

// lcb returns the lower-confidence-bound acquisition μ − β·√σ² of the
// posterior at x, allocating nothing. With beta ≥ 0 it tests, every
// exitCheckRows rows of the forward solve L⁻¹k*, whether x can still beat
// best: σ² only falls as the solve subtracts each vᵢ² (rounding is
// monotone), so μ − β·√max(σ²so far, 0) is a floor on the acquisition, and
// once the floor is ≥ best the strict acq < best cannot hold. lcb then
// returns that floor and full = false.
func (g *gp) lcb(x []float64, beta, best float64) (acq float64, full bool) {
	n := len(g.xs)
	g.w = grow(g.w, n)
	w := g.w
	for i := range w {
		w[i] = g.matern52(x, g.xs[i])
	}
	mean := g.yMean
	for i := 0; i < n; i++ {
		mean += w[i] * g.alpha[i]
	}
	variance := g.matern52(x, x)
	prune := beta >= 0
	off := 0
	for i := 0; i < n; i++ {
		row := g.chol[off : off+i+1]
		v := w[i]
		for j := 0; j < i; j++ {
			v -= row[j] * w[j]
		}
		vi := v / row[i]
		w[i] = vi
		variance -= vi * vi
		off += i + 1
		if prune && (i+1)%exitCheckRows == 0 {
			floor := variance
			if floor < 0 {
				floor = 0
			}
			if lower := mean - beta*math.Sqrt(floor); lower >= best {
				return lower, false
			}
		}
	}
	if variance < 0 {
		variance = 0
	}
	return mean - beta*math.Sqrt(variance), true
}

// grow returns s resized to n, reusing its array when it is large enough.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return append(s[:cap(s)], make([]float64, n-cap(s))...)
	}
	return s[:n]
}
