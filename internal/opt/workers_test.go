package opt

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// hashNoise is a deterministic stand-in for Monte-Carlo objective noise: a
// pure function of theta (no shared state), so it is safe for concurrent
// evaluation — the same class of objective Algorithm 1 supplies.
func hashNoise(theta []float64) float64 {
	h := uint64(1469598103934665603)
	for _, v := range theta {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return float64(h%1000) / 1e5
}

func deterministicObjective(theta []float64) float64 {
	s := 0.0
	for _, v := range theta {
		d := v - 0.4
		s += d * d
	}
	return s + hashNoise(theta)
}

// TestMinimizeWorkersBitIdentical is the parallel-training determinism
// contract at the optimizer layer: for every optimizer, any workers value
// produces exactly the sequential result — same best theta, value,
// evaluation count and best-so-far trace (Elapsed is wall-clock and
// exempt).
func TestMinimizeWorkersBitIdentical(t *testing.T) {
	for _, o := range allOptimizers() {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			base, err := o.Minimize(rand.New(rand.NewSource(9)), 3, each(deterministicObjective), 150, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				res, err := o.Minimize(rand.New(rand.NewSource(9)), 3, each(deterministicObjective), 150, workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.Value != base.Value {
					t.Errorf("workers=%d: value %v != sequential %v", workers, res.Value, base.Value)
				}
				if res.Evaluations != base.Evaluations {
					t.Errorf("workers=%d: evaluations %d != sequential %d", workers, res.Evaluations, base.Evaluations)
				}
				if len(res.Theta) != len(base.Theta) {
					t.Fatalf("workers=%d: theta dim %d != %d", workers, len(res.Theta), len(base.Theta))
				}
				for i := range res.Theta {
					if res.Theta[i] != base.Theta[i] {
						t.Errorf("workers=%d: theta[%d] = %v != %v", workers, i, res.Theta[i], base.Theta[i])
					}
				}
				if len(res.Trace) != len(base.Trace) {
					t.Fatalf("workers=%d: trace length %d != %d", workers, len(res.Trace), len(base.Trace))
				}
				for i := range res.Trace {
					if res.Trace[i].Evaluations != base.Trace[i].Evaluations ||
						res.Trace[i].Best != base.Trace[i].Best {
						t.Errorf("workers=%d: trace[%d] = (%d, %v) != (%d, %v)", workers, i,
							res.Trace[i].Evaluations, res.Trace[i].Best,
							base.Trace[i].Evaluations, base.Trace[i].Best)
					}
				}
			}
		})
	}
}

// TestEvaluateBatchRuns pins how a batch reaches the objective: every
// candidate exactly once, in runs of max(1, min(Lanes, ⌈n/workers⌉))
// consecutive candidates (the last run may be shorter), each value written
// to its own slot.
func TestEvaluateBatchRuns(t *testing.T) {
	for n := 1; n <= 13; n++ {
		for _, workers := range []int{1, 2, 3, 8} {
			var mu sync.Mutex
			var runs []int
			tr := newTracker(func(thetas [][]float64, out []float64) {
				mu.Lock()
				runs = append(runs, len(thetas))
				mu.Unlock()
				for i, theta := range thetas {
					out[i] = 2 * theta[0]
				}
			})
			thetas := make([][]float64, n)
			for i := range thetas {
				thetas[i] = []float64{float64(i)}
			}
			out := make([]float64, n)
			tr.evaluateBatch(thetas, out, workers)
			for i, v := range out {
				if v != 2*float64(i) {
					t.Fatalf("n %d, workers %d: out[%d] = %v", n, workers, i, v)
				}
			}
			run := max(1, min(Lanes, (n+min(workers, n)-1)/min(workers, n)))
			total, short := 0, 0
			for _, r := range runs {
				total += r
				if r > run {
					t.Fatalf("n %d, workers %d: a run of %d, want at most %d", n, workers, r, run)
				}
				if r < run {
					short++
				}
			}
			if total != n || short > 1 || tr.evals != n {
				t.Fatalf("n %d, workers %d: runs %v for %d candidates (%d folded)", n, workers, runs, n, tr.evals)
			}
		}
	}
}

// TestSingleEvaluationAllocatesNothing: a single evaluation hands the
// objective a batch of one the tracker holds.
func TestSingleEvaluationAllocatesNothing(t *testing.T) {
	tr := newTracker(func(thetas [][]float64, out []float64) { out[0] = 1 })
	theta := []float64{0.5}
	if allocs := testing.AllocsPerRun(100, func() { tr.evaluate(theta) }); allocs != 0 {
		t.Errorf("a single evaluation allocates %v times, want 0", allocs)
	}
}
