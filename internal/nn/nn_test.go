package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP(rng, ReLU, 2); err == nil {
		t.Error("single layer should fail")
	}
	if _, err := NewMLP(rng, ReLU, 2, 0, 1); err == nil {
		t.Error("zero-size layer should fail")
	}
	if _, err := NewMLP(rng, Activation(0), 2, 3, 1); err == nil {
		t.Error("unknown activation should fail")
	}
	m, err := NewMLP(rng, Tanh, 2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.sizes, []int{2, 8, 3}) || len(m.w) != 2 {
		t.Errorf("shape wrong: sizes %v, %d weight layers", m.sizes, len(m.w))
	}
}

func TestForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewMLP(rng, ReLU, 3, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.5, 0.9}
	y1 := m.Forward(x)
	y2 := m.Forward(x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("forward is not deterministic")
		}
	}
	if len(y1) != 2 {
		t.Fatalf("output size %d, want 2", len(y1))
	}
}

// numericalGrad estimates dLoss/dParam by central differences for a scalar
// quadratic loss against a fixed target.
func numericalGrad(m *MLP, x []float64, target float64, param *float64) float64 {
	const h = 1e-6
	orig := *param
	*param = orig + h
	up := m.Forward(x)[0]
	*param = orig - h
	down := m.Forward(x)[0]
	*param = orig
	lossUp := 0.5 * (up - target) * (up - target)
	lossDown := 0.5 * (down - target) * (down - target)
	return (lossUp - lossDown) / (2 * h)
}

func TestBackwardMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLP(rng, Tanh, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7}
	target := 0.25

	c := m.ForwardCache(x)
	out := c.Output()[0]
	g := m.NewGrads()
	// dLoss/dOut for L = 0.5*(out-target)^2.
	m.Backward(c, []float64{out - target}, g)

	// Check several weights in both layers.
	for l := 0; l < 2; l++ {
		for _, idx := range []int{0, 1, len(m.w[l]) - 1} {
			want := numericalGrad(m, x, target, &m.w[l][idx])
			got := g.w[l][idx]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("layer %d w[%d]: grad %v, want %v", l, idx, got, want)
			}
		}
		want := numericalGrad(m, x, target, &m.b[l][0])
		got := g.b[l][0]
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("layer %d bias: grad %v, want %v", l, got, want)
		}
	}
}

func TestBackwardReLUMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := NewMLP(rng, ReLU, 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.8, 0.2}
	target := -0.5
	c := m.ForwardCache(x)
	g := m.NewGrads()
	m.Backward(c, []float64{c.Output()[0] - target}, g)
	for _, idx := range []int{0, 3, len(m.w[0]) - 1} {
		want := numericalGrad(m, x, target, &m.w[0][idx])
		if math.Abs(g.w[0][idx]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("relu w[0][%d]: grad %v, want %v", idx, g.w[0][idx], want)
		}
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	// Fit y = 2x - 1 with a small net.
	rng := rand.New(rand.NewSource(4))
	m, err := NewMLP(rng, Tanh, 1, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	adam := &Adam{LR: 0.01}
	g := m.NewGrads()
	for epoch := 0; epoch < 600; epoch++ {
		g.Zero()
		loss := 0.0
		const n = 16
		for i := 0; i < n; i++ {
			x := rng.Float64()*2 - 1
			target := 2*x - 1
			c := m.ForwardCache([]float64{x})
			out := c.Output()[0]
			loss += 0.5 * (out - target) * (out - target)
			m.Backward(c, []float64{out - target}, g)
		}
		if err := adam.Step(m, g, n); err != nil {
			t.Fatal(err)
		}
	}
	// Evaluate fit.
	maxErr := 0.0
	for _, x := range []float64{-0.9, -0.5, 0, 0.5, 0.9} {
		got := m.Forward([]float64{x})[0]
		want := 2*x - 1
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.1 {
		t.Errorf("regression max error %v, want < 0.1", maxErr)
	}
}

func TestAdamRejectsForeignNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m1, _ := NewMLP(rng, ReLU, 1, 4, 1)
	m2, _ := NewMLP(rng, ReLU, 1, 4, 1)
	adam := &Adam{LR: 0.01}
	if err := adam.Step(m1, m1.NewGrads(), 1); err != nil {
		t.Fatal(err)
	}
	if err := adam.Step(m2, m2.NewGrads(), 1); err == nil {
		t.Error("Adam bound to m1 should reject m2")
	}
	if err := adam.Step(m1, m1.NewGrads(), 0); err == nil {
		t.Error("zero scale should fail")
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{0, 0})
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Errorf("softmax(0,0) = %v", p)
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 999})
	if math.IsNaN(p[0]) || p[0] <= p[1] {
		t.Errorf("softmax overflow: %v", p)
	}
}

// Property: softmax outputs a valid probability vector for arbitrary logits.
func TestSoftmaxProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		// Clamp to avoid Inf inputs from quick.
		cl := func(v float64) float64 { return math.Max(-1e6, math.Min(1e6, v)) }
		p := Softmax([]float64{cl(a), cl(b), cl(c)})
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestForwardIntoReusesCacheBitIdentically holds a reused cache to fresh
// ones: ForwardInto's output and Backward's gradients through one cache
// carried across inputs (and across networks of other shapes) are == to
// ForwardCache and Backward on a new cache per sample.
func TestForwardIntoReusesCacheBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var c Cache
	for trial := 0; trial < 40; trial++ {
		act := ReLU
		if trial%2 == 1 {
			act = Tanh
		}
		sizes := []int{1 + rng.Intn(3)}
		for l := 0; l < 1+rng.Intn(3); l++ {
			sizes = append(sizes, 1+rng.Intn(9))
		}
		m, err := NewMLP(rng, act, sizes...)
		if err != nil {
			t.Fatal(err)
		}
		reused, fresh := m.NewGrads(), m.NewGrads()
		for sample := 0; sample < 5; sample++ {
			x := make([]float64, m.sizes[0])
			dOut := make([]float64, m.sizes[len(m.sizes)-1])
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range dOut {
				dOut[i] = rng.NormFloat64()
			}
			m.ForwardInto(&c, x)
			fc := m.ForwardCache(x)
			for i, v := range fc.Output() {
				if c.Output()[i] != v {
					t.Fatalf("trial %d: output[%d] %v through a reused cache, %v fresh", trial, i, c.Output()[i], v)
				}
			}
			m.Backward(&c, dOut, reused)
			m.Backward(fc, dOut, fresh)
		}
		for l := range fresh.w {
			for i := range fresh.w[l] {
				if reused.w[l][i] != fresh.w[l][i] {
					t.Fatalf("trial %d: weight gradient [%d][%d] differs", trial, l, i)
				}
			}
			for i := range fresh.b[l] {
				if reused.b[l][i] != fresh.b[l][i] {
					t.Fatalf("trial %d: bias gradient [%d][%d] differs", trial, l, i)
				}
			}
		}
	}
}

// TestForwardBackwardWarmZeroAllocs guards the PPO update loop: a forward
// and a backward pass on a warm cache allocate nothing.
func TestForwardBackwardWarmZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := NewMLP(rng, ReLU, 2, 64, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGrads()
	var c Cache
	x := []float64{0.4, 0.2}
	dOut := []float64{0.1, -0.3}
	m.ForwardInto(&c, x)
	allocs := testing.AllocsPerRun(50, func() {
		m.ForwardInto(&c, x)
		m.Backward(&c, dOut, g)
	})
	if allocs != 0 {
		t.Fatalf("warm forward+backward allocates %v times", allocs)
	}
}

// TestSoftmax2MatchesSoftmax holds the two-logit form to Softmax bit for
// bit, infinities and NaN included.
func TestSoftmax2MatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	special := []float64{0, math.Copysign(0, -1), 1e300, -1e300, 745, -745, math.Inf(1), math.Inf(-1), math.NaN()}
	var logits [][2]float64
	for _, a := range special {
		for _, b := range special {
			logits = append(logits, [2]float64{a, b})
		}
	}
	for i := 0; i < 2000; i++ {
		logits = append(logits, [2]float64{rng.NormFloat64() * 30, rng.NormFloat64() * 30})
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	for _, l := range logits {
		want := Softmax(l[:])
		got := Softmax2(l[0], l[1])
		if !same(got[0], want[0]) || !same(got[1], want[1]) {
			t.Fatalf("Softmax2(%v, %v) = %v, Softmax %v", l[0], l[1], got, want)
		}
	}
}
