// Package nn implements the small dense neural networks and the Adam
// optimizer used by the PPO baseline of Table 2 (by default 2 hidden layers
// of 64 ReLU units; Table 8 lists 4). It is a minimal, allocation-conscious
// implementation sufficient for the low-dimensional policy/value networks
// of Problem 1.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadShape is returned when network dimensions are inconsistent.
var ErrBadShape = errors.New("nn: bad shape")

// Activation selects the hidden-layer nonlinearity.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota + 1
	Tanh
)

// MLP is a fully connected network with identical hidden activations and a
// linear output layer.
type MLP struct {
	sizes  []int
	w      [][]float64 // w[l][out*in[l]+in] — row-major per layer
	b      [][]float64
	hidden Activation
}

// NewMLP builds a network with the given layer sizes (input, hidden...,
// output), initialized with He-scaled Gaussian weights.
func NewMLP(rng *rand.Rand, hidden Activation, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least input and output sizes", ErrBadShape)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("%w: layer size %d", ErrBadShape, s)
		}
	}
	if hidden != ReLU && hidden != Tanh {
		return nil, fmt.Errorf("%w: unknown activation %d", ErrBadShape, hidden)
	}
	m := &MLP{
		sizes:  append([]int(nil), sizes...),
		hidden: hidden,
	}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.w = append(m.w, w)
		m.b = append(m.b, make([]float64, out))
	}
	return m, nil
}

func (m *MLP) activate(v float64) float64 {
	switch m.hidden {
	case ReLU:
		if v < 0 {
			return 0
		}
		return v
	default:
		return math.Tanh(v)
	}
}

func (m *MLP) activateGrad(pre float64) float64 {
	switch m.hidden {
	case ReLU:
		if pre < 0 {
			return 0
		}
		return 1
	default:
		t := math.Tanh(pre)
		return 1 - t*t
	}
}

// Forward computes the network output for a single input.
func (m *MLP) Forward(x []float64) []float64 {
	c := m.ForwardCache(x)
	out := c.act[len(c.act)-1]
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// Cache holds the intermediate activations of one forward pass, needed for
// backpropagation, and Backward's scratch. A zero Cache is ready for use:
// ForwardInto sizes it for its network on first use and reuses the buffers
// on every later pass.
type Cache struct {
	pre [][]float64 // pre-activations per weight layer
	act [][]float64 // act[0] = input, act[l+1] = output of layer l
	// grad[l] holds dLoss/d(pre-activation of layer l) during Backward.
	grad [][]float64
}

// Output returns the network output of the cached forward pass. The slice
// aliases the cache and must not be modified.
func (c *Cache) Output() []float64 {
	return c.act[len(c.act)-1]
}

// fit sizes the cache's buffers for m, keeping them when they already fit.
func (c *Cache) fit(m *MLP) {
	if len(c.act) == len(m.sizes) && len(c.act[0]) == m.sizes[0] {
		fits := true
		for l := range m.w {
			fits = fits && len(c.pre[l]) == m.sizes[l+1]
		}
		if fits {
			return
		}
	}
	c.pre = make([][]float64, len(m.w))
	c.act = make([][]float64, len(m.sizes))
	c.grad = make([][]float64, len(m.w))
	c.act[0] = make([]float64, m.sizes[0])
	for l := range m.w {
		c.pre[l] = make([]float64, m.sizes[l+1])
		c.act[l+1] = make([]float64, m.sizes[l+1])
		c.grad[l] = make([]float64, m.sizes[l+1])
	}
}

// ForwardCache runs a forward pass retaining intermediate activations in a
// new cache.
func (m *MLP) ForwardCache(x []float64) *Cache {
	c := &Cache{}
	m.ForwardInto(c, x)
	return c
}

// ForwardInto runs a forward pass into the caller's cache, overwriting the
// previous pass. A warm cache makes the pass allocation-free. x must have
// the network's input size.
func (m *MLP) ForwardInto(c *Cache, x []float64) {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input of size %d for a network of input size %d", len(x), m.sizes[0]))
	}
	c.fit(m)
	cur := c.act[0]
	copy(cur, x)
	last := len(m.w) - 1
	for l := range m.w {
		pre := c.pre[l]
		affine(pre, m.w[l], m.b[l], cur)
		next := c.act[l+1]
		if l == last {
			copy(next, pre) // linear output layer
		} else {
			for o, p := range pre {
				next[o] = m.activate(p)
			}
		}
		cur = next
	}
}

// rowBlock is how many output rows affine sums in one pass over the input.
const rowBlock = 4

// affine sets pre[o] = b[o] + w[o][0]*x[0] + w[o][1]*x[1] + … for the
// row-major w, each sum formed bias first, then input by input. Summing
// rowBlock rows per pass over x keeps that order for every output while
// their add chains overlap; leftover rows are summed one at a time.
func affine(pre, w, b, x []float64) {
	in := len(x)
	o := 0
	for ; o+rowBlock <= len(pre); o += rowBlock {
		r0 := w[o*in:][:in]
		r1 := w[(o+1)*in:][:in]
		r2 := w[(o+2)*in:][:in]
		r3 := w[(o+3)*in:][:in]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		pre[o], pre[o+1], pre[o+2], pre[o+3] = s0, s1, s2, s3
	}
	for ; o < len(pre); o++ {
		sum := b[o]
		row := w[o*in:][:in]
		for i, xi := range x {
			sum += row[i] * xi
		}
		pre[o] = sum
	}
}

// Grads accumulates parameter gradients with the same shapes as the network.
type Grads struct {
	w [][]float64
	b [][]float64
}

// NewGrads allocates a zeroed gradient buffer for the network.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{}
	for l := range m.w {
		g.w = append(g.w, make([]float64, len(m.w[l])))
		g.b = append(g.b, make([]float64, len(m.b[l])))
	}
	return g
}

// Zero resets the accumulated gradients.
func (g *Grads) Zero() {
	for l := range g.w {
		for i := range g.w[l] {
			g.w[l][i] = 0
		}
		for i := range g.b[l] {
			g.b[l][i] = 0
		}
	}
}

// Backward accumulates gradients for one sample given dLoss/dOutput and the
// sample's forward pass in c. Its scratch lives in c, so Backward on a warm
// cache allocates nothing.
//
// Each layer is one sweep per non-zero output delta, which adds that
// output's weight-gradient row and its share of the input gradient
// together; two consecutive non-zero outputs share a sweep. Zero deltas are
// skipped, never multiplied in, and every input-gradient entry sums its
// outputs' terms in output order, so the result is that of a plain
// output-by-output loop.
func (m *MLP) Backward(c *Cache, dOut []float64, g *Grads) {
	last := len(m.w) - 1
	delta := c.grad[last]
	copy(delta, dOut)
	for l := last; l >= 0; l-- {
		in := m.sizes[l]
		if l != last {
			for o, p := range c.pre[l] {
				delta[o] *= m.activateGrad(p)
			}
		}
		input := c.act[l]
		w := m.w[l]
		gw := g.w[l]
		gb := g.b[l]
		if l == 0 {
			for o, d := range delta {
				if d == 0 {
					continue
				}
				gb[o] += d
				axpy(gw[o*in:][:in], d, input)
			}
			return
		}
		prev := c.grad[l-1]
		clear(prev)
		held := -1 // a non-zero output waiting for a second to share its sweep
		for o, d := range delta {
			if d == 0 {
				continue
			}
			gb[o] += d
			if held < 0 {
				held = o
				continue
			}
			backPair(prev, input, gw[held*in:][:in], gw[o*in:][:in], w[held*in:][:in], w[o*in:][:in], delta[held], d)
			held = -1
		}
		if held >= 0 {
			d := delta[held]
			axpy(gw[held*in:][:in], d, input)
			axpy(prev, d, w[held*in:][:in])
		}
		delta = prev
	}
}

// axpy adds d*x[i] to y[i].
func axpy(y []float64, d float64, x []float64) {
	y = y[:len(x)]
	for i, xi := range x {
		y[i] += d * xi
	}
}

// backPair is one backward sweep for two outputs with deltas d0 and d1,
// weight rows w0 and w1 and weight-gradient rows g0 and g1: it adds each
// output's weight gradient and both outputs' input-gradient terms, d0's
// first.
func backPair(prev, x, g0, g1, w0, w1 []float64, d0, d1 float64) {
	g0 = g0[:len(x)]
	g1 = g1[:len(x)]
	prev = prev[:len(x)]
	w0 = w0[:len(x)]
	w1 = w1[:len(x)]
	for i, xi := range x {
		g0[i] += d0 * xi
		g1[i] += d1 * xi
		prev[i] = prev[i] + d0*w0[i] + d1*w1[i]
	}
}

// Adam is the Adam optimizer over an MLP's parameters.
type Adam struct {
	// LR is the learning rate.
	LR float64
	// Beta1, Beta2, Eps are the standard Adam constants; zero values take
	// the usual defaults (0.9, 0.999, 1e-8).
	Beta1, Beta2, Eps float64

	t          int
	mw, vw     [][]float64
	mb, vb     [][]float64
	registered *MLP
}

// Step applies one Adam update using gradients scaled by 1/scale (e.g. the
// batch size). Gradients are not modified.
func (a *Adam) Step(m *MLP, g *Grads, scale float64) error {
	if scale <= 0 {
		return fmt.Errorf("%w: scale %v", ErrBadShape, scale)
	}
	if a.registered == nil {
		a.registered = m
		for l := range m.w {
			a.mw = append(a.mw, make([]float64, len(m.w[l])))
			a.vw = append(a.vw, make([]float64, len(m.w[l])))
			a.mb = append(a.mb, make([]float64, len(m.b[l])))
			a.vb = append(a.vb, make([]float64, len(m.b[l])))
		}
	} else if a.registered != m {
		return fmt.Errorf("%w: Adam bound to a different network", ErrBadShape)
	}
	b1 := a.Beta1
	if b1 == 0 {
		b1 = 0.9
	}
	b2 := a.Beta2
	if b2 == 0 {
		b2 = 0.999
	}
	eps := a.Eps
	if eps == 0 {
		eps = 1e-8
	}
	lr := a.LR
	if lr == 0 {
		lr = 3e-4
	}
	a.t++
	bc1 := 1 - math.Pow(b1, float64(a.t))
	bc2 := 1 - math.Pow(b2, float64(a.t))
	update := func(p, grad, mom, vel []float64) {
		for i := range p {
			g := grad[i] / scale
			mom[i] = b1*mom[i] + (1-b1)*g
			vel[i] = b2*vel[i] + (1-b2)*g*g
			mHat := mom[i] / bc1
			vHat := vel[i] / bc2
			p[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
	}
	for l := range m.w {
		update(m.w[l], g.w[l], a.mw[l], a.vw[l])
		update(m.b[l], g.b[l], a.mb[l], a.vb[l])
	}
	return nil
}

// Softmax converts logits into probabilities in place-safe fashion.
func Softmax(logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	out := make([]float64, len(logits))
	sum := 0.0
	for i, l := range logits {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Softmax2 is Softmax of two logits with the same float operations in the
// same order, without allocating.
func Softmax2(l0, l1 float64) [2]float64 {
	maxL := math.Inf(-1)
	if l0 > maxL {
		maxL = l0
	}
	if l1 > maxL {
		maxL = l1
	}
	e0 := math.Exp(l0 - maxL)
	e1 := math.Exp(l1 - maxL)
	sum := 0.0
	sum += e0
	sum += e1
	return [2]float64{e0 / sum, e1 / sum}
}
