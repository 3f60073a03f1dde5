package opt

import (
	"math"
	"math/rand"
	"sort"
)

// CEM implements the Cross-Entropy Method (the paper's [70], Table 8:
// population 100, elite fraction 0.15): iteratively fit a diagonal Gaussian
// to the elite fraction of each sampled population.
type CEM struct {
	// Population is the number of samples per generation (Table 8: 100).
	Population int
	// EliteFraction is the fraction of samples kept (Table 8: 0.15).
	EliteFraction float64
	// InitialStd is the starting standard deviation per coordinate.
	InitialStd float64
	// MinStd floors the standard deviation to keep exploring.
	MinStd float64
}

// Name implements Optimizer.
func (CEM) Name() string { return "cem" }

// Minimize implements Optimizer. Each generation's population is drawn
// up front from rng (the same draw order a sequential run uses) and
// evaluated through the tracker's batch path, so any workers value yields
// bit-identical results.
func (c CEM) Minimize(rng *rand.Rand, dim int, obj Objective, budget, workers int) (*Result, error) {
	if err := validateArgs(dim, budget, obj); err != nil {
		return nil, err
	}
	pop := c.Population
	if pop <= 0 {
		pop = 100
	}
	if pop > budget {
		pop = budget
	}
	elite := c.EliteFraction
	if elite <= 0 || elite > 1 {
		elite = 0.15
	}
	nElite := int(math.Max(2, math.Round(elite*float64(pop))))
	std0 := c.InitialStd
	if std0 <= 0 {
		std0 = 0.3
	}
	minStd := c.MinStd
	if minStd <= 0 {
		minStd = 0.01
	}

	mean := make([]float64, dim)
	std := make([]float64, dim)
	for i := range mean {
		mean[i] = 0.5
		std[i] = std0
	}

	tr := newTracker(obj)
	type sample struct {
		theta []float64
		value float64
	}
	samples := make([]sample, pop)
	for s := range samples {
		samples[s].theta = make([]float64, dim)
	}
	thetas := make([][]float64, pop)
	values := make([]float64, pop)
	for tr.evals+pop <= budget {
		// Draw the whole generation first (the rng sequence is exactly the
		// interleaved draw-evaluate order of a sequential run, because the
		// objective never consumes this rng), then evaluate it as a batch.
		for s := 0; s < pop; s++ {
			theta := samples[s].theta
			for i := range theta {
				theta[i] = mean[i] + std[i]*rng.NormFloat64()
			}
			clamp01(theta)
			thetas[s] = theta
		}
		tr.evaluateBatch(thetas, values, workers)
		for s := 0; s < pop; s++ {
			samples[s].value = values[s]
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a].value < samples[b].value })
		for i := 0; i < dim; i++ {
			m := 0.0
			for s := 0; s < nElite; s++ {
				m += samples[s].theta[i]
			}
			m /= float64(nElite)
			v := 0.0
			for s := 0; s < nElite; s++ {
				d := samples[s].theta[i] - m
				v += d * d
			}
			v /= float64(nElite)
			mean[i] = m
			std[i] = math.Max(minStd, math.Sqrt(v))
		}
	}
	// Spend any remaining budget (fewer than pop evaluations) refining
	// around the mean: drawn in the order a draw-evaluate loop would draw
	// them, then evaluated as one batch.
	n := budget - tr.evals
	for s := 0; s < n; s++ {
		theta := samples[s].theta
		for i := range theta {
			theta[i] = mean[i] + minStd*rng.NormFloat64()
		}
		clamp01(theta)
		thetas[s] = theta
	}
	tr.evaluateBatch(thetas[:n], values[:n], workers)
	return tr.result(), nil
}
