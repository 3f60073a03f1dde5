package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// each is the batch objective that scores every candidate with f, in
// candidate order.
func each(f func(theta []float64) float64) Objective {
	return func(thetas [][]float64, out []float64) {
		for i, theta := range thetas {
			out[i] = f(theta)
		}
	}
}

// sphere has its minimum 0 at the given center.
func sphere(center []float64) Objective {
	return each(func(theta []float64) float64 {
		s := 0.0
		for i, v := range theta {
			d := v - center[i]
			s += d * d
		}
		return s
	})
}

// noisySphere adds Gaussian noise to the sphere objective.
func noisySphere(center []float64, sigma float64, rng *rand.Rand) Objective {
	base := sphere(center)
	return each(func(theta []float64) float64 {
		var v [1]float64
		base([][]float64{theta}, v[:])
		return v[0] + sigma*rng.NormFloat64()
	})
}

func allOptimizers() []Optimizer {
	return []Optimizer{
		RandomSearch{},
		SPSA{Restarts: 2},
		CEM{Population: 40},
		DE{},
		BO{InitialSamples: 10, Candidates: 128},
	}
}

func TestOptimizersFindSphereMinimum(t *testing.T) {
	center := []float64{0.3, 0.7}
	for _, o := range allOptimizers() {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			res, err := o.Minimize(rng, 2, sphere(center), 400, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value > 0.02 {
				t.Errorf("%s: best value %v, want < 0.02 (theta %v)", o.Name(), res.Value, res.Theta)
			}
			if res.Evaluations > 400 {
				t.Errorf("%s: used %d evaluations, budget 400", o.Name(), res.Evaluations)
			}
		})
	}
}

func TestOptimizersRespectBudget(t *testing.T) {
	for _, o := range allOptimizers() {
		rng := rand.New(rand.NewSource(2))
		calls := 0
		obj := func(theta []float64) float64 {
			calls++
			return theta[0]
		}
		res, err := o.Minimize(rng, 1, each(obj), 50, 1)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		if calls > 50 {
			t.Errorf("%s: %d objective calls, budget 50", o.Name(), calls)
		}
		if res.Evaluations != calls {
			t.Errorf("%s: reported %d evals, actual %d", o.Name(), res.Evaluations, calls)
		}
	}
}

func TestOptimizersHandleNoise(t *testing.T) {
	// CEM and DE are the paper's most reliable solvers (Table 2); they
	// should still localize the minimum under observation noise.
	center := []float64{0.6}
	for _, o := range []Optimizer{CEM{Population: 30}, DE{}} {
		rng := rand.New(rand.NewSource(3))
		res, err := o.Minimize(rng, 1, noisySphere(center, 0.01, rng), 600, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Theta[0]-0.6) > 0.15 {
			t.Errorf("%s: theta = %v, want near 0.6", o.Name(), res.Theta)
		}
	}
}

func TestTraceMonotone(t *testing.T) {
	for _, o := range allOptimizers() {
		rng := rand.New(rand.NewSource(4))
		res, err := o.Minimize(rng, 2, sphere([]float64{0.5, 0.5}), 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace) == 0 {
			t.Fatalf("%s: empty trace", o.Name())
		}
		for i := 1; i < len(res.Trace); i++ {
			if res.Trace[i].Best > res.Trace[i-1].Best {
				t.Errorf("%s: trace not monotone at %d", o.Name(), i)
			}
			if res.Trace[i].Evaluations <= res.Trace[i-1].Evaluations {
				t.Errorf("%s: trace eval counts not increasing", o.Name())
			}
		}
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, o := range allOptimizers() {
		if _, err := o.Minimize(rng, 0, sphere([]float64{0.5}), 100, 1); err == nil {
			t.Errorf("%s: dim 0 should fail", o.Name())
		}
		if _, err := o.Minimize(rng, 1, nil, 100, 1); err == nil {
			t.Errorf("%s: nil objective should fail", o.Name())
		}
		if _, err := o.Minimize(rng, 1, sphere([]float64{0.5}), 1, 1); err == nil {
			t.Errorf("%s: budget 1 should fail", o.Name())
		}
	}
}

// Property: all optimizers stay inside the unit box.
func TestThetaWithinBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ok := true
		obj := func(theta []float64) float64 {
			for _, v := range theta {
				if v < 0 || v > 1 {
					ok = false
				}
			}
			return theta[0]
		}
		for _, o := range allOptimizers() {
			if _, err := o.Minimize(rng, 3, each(obj), 60, 1); err != nil {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// posterior reads the posterior mean and variance at x off two
// acquisitions, β = 0 and β = 1.
func posterior(g *gp, x []float64) (mean, variance float64) {
	mean, _ = g.lcb(x, 0, math.Inf(1))
	lower, _ := g.lcb(x, 1, math.Inf(1))
	return mean, (mean - lower) * (mean - lower)
}

func TestGPInterpolatesObservations(t *testing.T) {
	g := newGP(0.3, 1, 1e-6, 0)
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	ys := []float64{1, -1, 2}
	if err := g.fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, v := posterior(g, x)
		if math.Abs(mu-ys[i]) > 0.01 {
			t.Errorf("predict(%v) = %v, want ~%v", x, mu, ys[i])
		}
		if v > 0.01 {
			t.Errorf("variance at observed point = %v, want ~0", v)
		}
	}
	// Far from data the variance approaches the prior.
	_, vFar := posterior(g, []float64{100})
	if vFar < 0.9 {
		t.Errorf("variance far from data = %v, want near prior 1", vFar)
	}
}

func TestGPPredictionBetweenPoints(t *testing.T) {
	// GP mean between two equal observations should be close to them.
	g := newGP(0.5, 1, 1e-6, 0)
	if err := g.fit([][]float64{{0.4}, {0.6}}, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	mu, _ := posterior(g, []float64{0.5})
	if math.Abs(mu-2) > 0.05 {
		t.Errorf("mid prediction = %v, want ~2", mu)
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, math.Sqrt(2)}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-12 {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l[i][j], want[i][j])
			}
		}
	}
	if _, err := cholesky([][]float64{{-1}}); err == nil {
		t.Error("negative-definite matrix should fail")
	}
}

func TestCholSolveRoundTrip(t *testing.T) {
	a := [][]float64{{4, 2, 0.5}, {2, 5, 1}, {0.5, 1, 3}}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0.5}
	b := make([]float64, 3)
	for i := range a {
		for j := range a[i] {
			b[i] += a[i][j] * want[j]
		}
	}
	got := cholSolve(l, b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormalize(t *testing.T) {
	ys := normalizeInto(nil, []float64{1, 2, 3})
	mean := (ys[0] + ys[1] + ys[2]) / 3
	if math.Abs(mean) > 1e-12 {
		t.Errorf("normalized mean = %v", mean)
	}
	// Constant input should not produce NaN.
	for _, v := range normalizeInto(nil, []float64{5, 5, 5}) {
		if math.IsNaN(v) {
			t.Error("normalize of constant produced NaN")
		}
	}
}

func TestSelectGPPoints(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		xs = append(xs, []float64{float64(i)})
		ys = append(ys, float64(20-i))
	}
	kx, ky := selectGPPoints(new(gpPoints), xs, ys, 10)
	if len(kx) != 10 || len(ky) != 10 {
		t.Fatalf("kept %d/%d, want 10", len(kx), len(ky))
	}
	// The globally best (smallest y, latest index) must be kept.
	found := false
	for _, y := range ky {
		if y == 1 {
			found = true
		}
	}
	if !found {
		t.Error("best observation dropped")
	}
}

func TestOptimizerNames(t *testing.T) {
	want := map[string]bool{"random": true, "spsa": true, "cem": true, "de": true, "bo": true}
	for _, o := range allOptimizers() {
		if !want[o.Name()] {
			t.Errorf("unexpected optimizer name %q", o.Name())
		}
	}
}
