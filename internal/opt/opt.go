// Package opt provides the parametric optimizers used by Algorithm 1 of the
// paper to search threshold-strategy parameter spaces: Simultaneous
// Perturbation Stochastic Approximation (SPSA), the Cross-Entropy Method
// (CEM), Differential Evolution (DE), and Bayesian Optimization (BO) with a
// Matérn-5/2 Gaussian process and a lower-confidence-bound acquisition — the
// configurations of Table 8.
//
// All optimizers minimize a (possibly stochastic) objective over the unit
// box [0, 1]^dim and record a best-so-far trace for convergence plots
// (Fig 7).
package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBadConfig is returned when an optimizer is configured inconsistently.
var ErrBadConfig = errors.New("opt: bad configuration")

// Objective evaluates a parameter vector in [0,1]^dim; smaller is better.
// Evaluations may be stochastic (Monte-Carlo estimates of J_i in eq. (5)).
type Objective func(theta []float64) float64

// TracePoint records the best objective value seen after a number of
// evaluations; used to reproduce the convergence curves of Fig 7.
type TracePoint struct {
	Evaluations int
	Elapsed     time.Duration
	Best        float64
}

// Result is the outcome of a minimization run.
type Result struct {
	// Theta is the best parameter vector found.
	Theta []float64
	// Value is the objective value at Theta as observed during the search.
	Value float64
	// Evaluations is the number of objective calls consumed.
	Evaluations int
	// Elapsed is the total wall-clock duration of the search.
	Elapsed time.Duration
	// Trace holds best-so-far checkpoints.
	Trace []TracePoint
}

// Optimizer minimizes an objective over [0,1]^dim with a fixed budget of
// objective evaluations.
type Optimizer interface {
	// Name identifies the algorithm (e.g. "cem").
	Name() string
	// Minimize runs the search. budget is the maximum number of objective
	// evaluations; workers bounds how many candidates of one generation are
	// evaluated concurrently (values <= 1 run fully sequentially).
	//
	// Determinism contract: every optimizer draws its candidates from rng
	// in a fixed order that never depends on workers, and folds evaluation
	// results (the evaluation counter, the best-so-far trace, population
	// updates) in candidate order — so Theta, Value, Evaluations and the
	// Trace are bit-identical for every workers value. With workers > 1 the
	// objective must be safe for concurrent calls and independent of
	// evaluation order; objectives that draw from a private rng stream per
	// evaluation, or that replay a read-only recorded stream through their
	// own cursor (recovery.Algorithm1's Monte-Carlo objective), satisfy
	// both; objectives that share one mutable rng do not.
	Minimize(rng *rand.Rand, dim int, obj Objective, budget, workers int) (*Result, error)
}

// Instrument wraps an objective so every evaluation reports its value to
// onEval. The wrapper is a pure observer and preserves the determinism
// contract: it changes no draw, no fold order and no result — it only sees
// values after they are computed. Under workers > 1 evaluations run
// concurrently, so onEval must be safe for concurrent use (the telemetry
// training sinks are). A nil onEval returns obj unchanged.
func Instrument(obj Objective, onEval func(v float64)) Objective {
	if onEval == nil {
		return obj
	}
	return func(theta []float64) float64 {
		v := obj(theta)
		onEval(v)
		return v
	}
}

// tracker accumulates evaluations and the best-so-far trace.
type tracker struct {
	obj       Objective
	evals     int
	start     time.Time
	bestTheta []float64
	bestValue float64
	trace     []TracePoint
}

func newTracker(obj Objective) *tracker {
	return &tracker{obj: obj, start: time.Now(), bestValue: math.Inf(1)}
}

func (t *tracker) evaluate(theta []float64) float64 {
	v := t.obj(theta)
	t.fold(theta, v)
	return v
}

// fold accounts one evaluation result: it advances the evaluation counter
// and updates the best-so-far trace. Batch evaluation folds in candidate
// order, which is what keeps parallel results bit-identical to sequential
// ones (TracePoint.Elapsed is wall-clock and exempt from that contract).
func (t *tracker) fold(theta []float64, v float64) {
	t.evals++
	if v < t.bestValue {
		t.bestValue = v
		t.bestTheta = append([]float64(nil), theta...)
		t.trace = append(t.trace, TracePoint{
			Evaluations: t.evals,
			Elapsed:     time.Since(t.start),
			Best:        v,
		})
	}
}

// evaluateBatch evaluates one generation's candidates, writing values into
// out (sized to len(thetas)) and folding them into the tracker in candidate
// order. workers bounds the concurrent objective calls; any value yields
// bit-identical tracker state because candidates are pre-drawn and the fold
// is sequential in index order.
func (t *tracker) evaluateBatch(thetas [][]float64, out []float64, workers int) {
	if workers > len(thetas) {
		workers = len(thetas)
	}
	if workers <= 1 {
		for i, theta := range thetas {
			out[i] = t.evaluate(theta)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(thetas) {
					return
				}
				out[i] = t.obj(thetas[i])
			}
		}()
	}
	wg.Wait()
	for i, theta := range thetas {
		t.fold(theta, out[i])
	}
}

func (t *tracker) result() *Result {
	return &Result{
		Theta:       t.bestTheta,
		Value:       t.bestValue,
		Evaluations: t.evals,
		Elapsed:     time.Since(t.start),
		Trace:       t.trace,
	}
}

func clamp01(theta []float64) {
	for i, v := range theta {
		if v < 0 {
			theta[i] = 0
		} else if v > 1 {
			theta[i] = 1
		}
	}
}

func validateArgs(dim, budget int, obj Objective) error {
	if dim < 1 {
		return fmt.Errorf("%w: dim = %d", ErrBadConfig, dim)
	}
	if budget < 2 {
		return fmt.Errorf("%w: budget = %d", ErrBadConfig, budget)
	}
	if obj == nil {
		return fmt.Errorf("%w: nil objective", ErrBadConfig)
	}
	return nil
}

// ByName resolves an optimizer by its method name — the single mapping
// shared by the solve facade and the learned strategy registrations, so a
// new optimizer becomes available everywhere by extending this table.
func ByName(name string) (Optimizer, bool) {
	switch name {
	case "cem":
		return CEM{}, true
	case "de":
		return DE{}, true
	case "bo":
		return BO{}, true
	case "spsa":
		return SPSA{}, true
	case "random":
		return RandomSearch{}, true
	}
	return nil, false
}

// RandomSearch is a uniform-sampling baseline optimizer. It is not part of
// the paper's Table 2 but serves as a sanity floor in tests and ablations.
type RandomSearch struct{}

// Name implements Optimizer.
func (RandomSearch) Name() string { return "random" }

// randomSearchChunk is the generation size of RandomSearch: candidates are
// drawn and evaluated in fixed-size chunks, so the rng draw order — and
// therefore the result — is independent of the workers value.
const randomSearchChunk = 64

// Minimize implements Optimizer.
func (RandomSearch) Minimize(rng *rand.Rand, dim int, obj Objective, budget, workers int) (*Result, error) {
	if err := validateArgs(dim, budget, obj); err != nil {
		return nil, err
	}
	tr := newTracker(obj)
	thetas := make([][]float64, randomSearchChunk)
	for i := range thetas {
		thetas[i] = make([]float64, dim)
	}
	values := make([]float64, randomSearchChunk)
	for tr.evals < budget {
		n := budget - tr.evals
		if n > randomSearchChunk {
			n = randomSearchChunk
		}
		for s := 0; s < n; s++ {
			for i := range thetas[s] {
				thetas[s][i] = rng.Float64()
			}
		}
		tr.evaluateBatch(thetas[:n], values[:n], workers)
	}
	return tr.result(), nil
}
