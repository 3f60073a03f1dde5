package opt

import (
	"fmt"
	"math"
	"math/rand"
)

// BO implements Bayesian Optimization with an exact Matérn-5/2 Gaussian
// process and a lower-confidence-bound acquisition (the paper's [72];
// Table 8: beta = 2.5, Matérn(2.5) kernel). Candidates are proposed by
// multi-start random search over the acquisition surface.
type BO struct {
	// Beta is the LCB exploration weight (Table 8: 2.5).
	Beta float64
	// InitialSamples seeds the GP with uniform random evaluations.
	InitialSamples int
	// Candidates is the number of random acquisition probes per iteration.
	Candidates int
	// LengthScale of the Matérn kernel; defaults to 0.2.
	LengthScale float64
	// NoiseVar models observation noise of the stochastic objective.
	NoiseVar float64
	// MaxGPPoints caps the conditioning set; the most recent and the best
	// points are kept when it is exceeded. Past it the factor is refit from
	// scratch; below it a point costs one row.
	MaxGPPoints int
}

// Name implements Optimizer.
func (BO) Name() string { return "bo" }

// Minimize implements Optimizer. The initial random design evaluates as
// one concurrent batch; the acquisition loop is inherently sequential
// (every proposal conditions the GP on all previous results), so workers
// does not speed it up. Results are bit-identical for any workers value.
func (b BO) Minimize(rng *rand.Rand, dim int, obj Objective, budget, workers int) (*Result, error) {
	if err := validateArgs(dim, budget, obj); err != nil {
		return nil, err
	}
	beta := b.Beta
	if beta == 0 {
		beta = 2.5
	}
	initial := b.InitialSamples
	if initial <= 0 {
		initial = 5 * dim
	}
	if initial >= budget {
		initial = budget / 2
	}
	if initial < 1 {
		initial = 1
	}
	candidates := b.Candidates
	if candidates <= 0 {
		candidates = 256
	}
	lengthScale := b.LengthScale
	if lengthScale <= 0 {
		lengthScale = 0.2
	}
	noise := b.NoiseVar
	if noise <= 0 {
		noise = 1e-4
	}
	maxPoints := b.MaxGPPoints
	if maxPoints <= 0 {
		maxPoints = 160
	}

	tr := newTracker(obj)
	xs := make([][]float64, initial, budget)
	ys := make([]float64, initial, budget)
	for e := range xs {
		theta := make([]float64, dim)
		for i := range theta {
			theta[i] = rng.Float64()
		}
		xs[e] = theta
	}
	tr.evaluateBatch(xs, ys, workers)

	model := newGP(lengthScale, 1, noise, min(budget, maxPoints))
	normYs := make([]float64, 0, budget)
	bestTheta := make([]float64, dim)
	probe := make([]float64, dim)
	var sel gpPoints
	for tr.evals < budget {
		fitXs, fitYs := xs, ys
		if len(xs) > maxPoints {
			fitXs, fitYs = selectGPPoints(&sel, xs, ys, maxPoints)
			model.reset()
		}
		normYs = normalizeInto(normYs, fitYs)
		// With unit signal variance, the jittered diagonal keeps the kernel
		// positive definite, so a fit cannot fail.
		if err := model.fit(fitXs, normYs); err != nil {
			return nil, fmt.Errorf("opt: bo after %d evaluations: %w", tr.evals, err)
		}
		// Minimize the LCB acquisition mu - beta*sigma by random multistart
		// plus local jitter around the incumbent. A step in which no
		// candidate wins (every acquisition NaN) evaluates the zero vector.
		bestAcq := math.Inf(1)
		clear(bestTheta)
		for cIdx := 0; cIdx < candidates; cIdx++ {
			if cIdx%4 == 0 && tr.bestTheta != nil {
				for i := range probe {
					probe[i] = tr.bestTheta[i] + 0.05*rng.NormFloat64()
				}
			} else {
				for i := range probe {
					probe[i] = rng.Float64()
				}
			}
			clamp01(probe)
			if acq, _ := model.lcb(probe, beta, bestAcq); acq < bestAcq {
				bestAcq = acq
				copy(bestTheta, probe)
			}
		}
		y := tr.evaluate(bestTheta)
		xs = append(xs, append([]float64(nil), bestTheta...))
		ys = append(ys, y)
	}
	return tr.result(), nil
}

// normalizeInto writes ys standardized to zero mean, unit variance into dst's
// array and returns it.
func normalizeInto(dst, ys []float64) []float64 {
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
	dst = grow(dst, len(ys))
	for i, y := range ys {
		dst[i] = (y - mean) / std
	}
	return dst
}

// gpPoints holds the conditioning set selectGPPoints keeps past
// MaxGPPoints, in buffers the BO loop reuses every step.
type gpPoints struct {
	xs   [][]float64
	ys   []float64
	rest []int // indices of the points older than the recent half not yet kept
}

// selectGPPoints keeps the best half and the most recent half of the budget:
// the limit/2 most recent points in order, then, until limit are kept, the
// first-indexed strict minimum of the older points still left (a NaN there
// is never less, so it stays first until it is kept). It writes the set into
// sel's buffers and returns them.
func selectGPPoints(sel *gpPoints, xs [][]float64, ys []float64, limit int) ([][]float64, []float64) {
	recent := len(xs) - limit/2
	sel.xs = append(sel.xs[:0], xs[recent:]...)
	sel.ys = append(sel.ys[:0], ys[recent:]...)
	sel.rest = sel.rest[:0]
	for i := 0; i < recent; i++ {
		sel.rest = append(sel.rest, i)
	}
	for len(sel.xs) < limit && len(sel.rest) > 0 {
		best := 0
		for i, idx := range sel.rest {
			if ys[idx] < ys[sel.rest[best]] {
				best = i
			}
		}
		idx := sel.rest[best]
		sel.xs = append(sel.xs, xs[idx])
		sel.ys = append(sel.ys, ys[idx])
		sel.rest = append(sel.rest[:best], sel.rest[best+1:]...)
	}
	return sel.xs, sel.ys
}
