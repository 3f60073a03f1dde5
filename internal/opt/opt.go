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

// Objective evaluates a batch of parameter vectors in [0,1]^dim, writing
// the value of thetas[i] to out[i] (len(out) == len(thetas)); smaller is
// better. Evaluations may be stochastic (Monte-Carlo estimates of J_i in
// eq. (5)). A value must not depend on which other candidates share its
// batch: the optimizers batch candidates differently for different workers
// values.
type Objective func(thetas [][]float64, out []float64)

// Lanes is the longest run of candidates one objective call receives when
// a batch is spread over workers: an objective that scores its candidates
// side by side, like recovery's Algorithm 1 objective, scores up to Lanes
// of them at once.
const Lanes = 4

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
	// in a fixed order that never depends on workers, hands the objective
	// runs of consecutive candidates whose length may depend on workers,
	// and folds evaluation results (the evaluation counter, the best-so-far
	// trace, population updates) in candidate order — so Theta, Value,
	// Evaluations and the Trace are bit-identical for every workers value,
	// provided a candidate's value does not depend on its run. With
	// workers > 1 the objective must also be safe for concurrent calls and
	// independent of evaluation order; objectives that draw from a private
	// rng stream per candidate, or that replay a read-only recorded stream
	// from its start for every candidate (recovery.Algorithm1's Monte-Carlo
	// objective), satisfy all three; objectives that share one mutable rng
	// do not.
	Minimize(rng *rand.Rand, dim int, obj Objective, budget, workers int) (*Result, error)
}

// tracker accumulates evaluations and the best-so-far trace.
type tracker struct {
	obj       Objective
	evals     int
	start     time.Time
	bestTheta []float64
	bestValue float64
	trace     []TracePoint
	// one and oneOut are the batch of one a single evaluation hands obj.
	one    [1][]float64
	oneOut [1]float64
}

func newTracker(obj Objective) *tracker {
	return &tracker{obj: obj, start: time.Now(), bestValue: math.Inf(1)}
}

// evaluate evaluates one candidate as a batch of one and folds it.
func (t *tracker) evaluate(theta []float64) float64 {
	t.one[0] = theta
	t.obj(t.one[:], t.oneOut[:])
	t.one[0] = nil
	v := t.oneOut[0]
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
		t.bestTheta = append(t.bestTheta[:0], theta...)
		t.trace = append(t.trace, TracePoint{
			Evaluations: t.evals,
			Elapsed:     time.Since(t.start),
			Best:        v,
		})
	}
}

// evaluateBatch evaluates one generation's candidates, writing values into
// out (sized to len(thetas)) and folding them into the tracker in candidate
// order. The objective receives runs of max(1, min(Lanes, ⌈n/workers⌉))
// consecutive candidates, which workers goroutines claim through one
// counter, so a pair still spreads over two workers. Any workers value
// yields bit-identical tracker state because candidates are pre-drawn and
// the fold is sequential in index order.
func (t *tracker) evaluateBatch(thetas [][]float64, out []float64, workers int) {
	n := len(thetas)
	if workers > n {
		workers = n
	}
	workers = max(1, workers)
	run := max(1, min(Lanes, (n+workers-1)/workers))
	if workers == 1 {
		for i := 0; i < n; i += run {
			j := min(n, i+run)
			t.obj(thetas[i:j], out[i:j])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(int64(run))) - run
					if i >= n {
						return
					}
					j := min(n, i+run)
					t.obj(thetas[i:j], out[i:j])
				}
			}()
		}
		wg.Wait()
	}
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
