package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleForwardInto is the reference forward pass ForwardInto is held to
// with bit equality: one output at a time, bias first, then input by input.
func oracleForwardInto(m *MLP, c *Cache, x []float64) {
	c.fit(m)
	cur := c.act[0]
	copy(cur, x)
	last := len(m.w) - 1
	for l := range m.w {
		in, out := m.sizes[l], m.sizes[l+1]
		pre := c.pre[l]
		w := m.w[l]
		for o := 0; o < out; o++ {
			sum := m.b[l][o]
			row := w[o*in : (o+1)*in]
			for i, xi := range cur {
				sum += row[i] * xi
			}
			pre[o] = sum
		}
		next := c.act[l+1]
		if l == last {
			copy(next, pre)
		} else {
			for o, p := range pre {
				next[o] = m.activate(p)
			}
		}
		cur = next
	}
}

// oracleBackward is the reference backward pass Backward is held to with
// bit equality: the weight gradients in one pass over the outputs, then the
// input gradient in a second, one output at a time, zero deltas skipped in
// both.
func oracleBackward(m *MLP, c *Cache, dOut []float64, g *Grads) {
	last := len(m.w) - 1
	delta := c.grad[last]
	copy(delta, dOut)
	for l := last; l >= 0; l-- {
		in := m.sizes[l]
		out := m.sizes[l+1]
		if l != last {
			for o := 0; o < out; o++ {
				delta[o] *= m.activateGrad(c.pre[l][o])
			}
		}
		input := c.act[l]
		w := m.w[l]
		gw := g.w[l]
		gb := g.b[l]
		for o := 0; o < out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			gb[o] += d
			row := gw[o*in : (o+1)*in]
			for i, xi := range input {
				row[i] += d * xi
			}
		}
		if l > 0 {
			prev := c.grad[l-1]
			clear(prev)
			for o := 0; o < out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := w[o*in : (o+1)*in]
				for i := 0; i < in; i++ {
					prev[i] += d * row[i]
				}
			}
			delta = prev
		}
	}
}

// signedZeros returns a draw that is +0 or −0 with probability p and a
// Gaussian otherwise.
func signedZeros(rng *rand.Rand, p float64) float64 {
	if rng.Float64() < p {
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	}
	return rng.NormFloat64()
}

// sameBits reports whether a and b agree bit for bit, the sign of zero
// included, and names the first entry that does not.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// TestKernelsMatchOracle holds ForwardInto and Backward to the one-output-
// at-a-time oracles with bit equality: every hidden width from 1 to 70
// (most not a multiple of rowBlock), ReLU and Tanh, weights, biases,
// inputs and output deltas with scattered ±0 and some all-zero rows (so
// pre-activations and deltas of either zero sign occur and zero deltas are
// skipped), and several samples accumulated into gradients that start
// non-zero.
func TestKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// negZeroPre and negZeroDelta count −0 pre-activations and deltas: the case a kernel
	// that multiplied zero deltas in, or reordered a sum, would get wrong.
	var negZeroPre, negZeroDelta int
	for width := 1; width <= 70; width++ {
		for _, act := range []Activation{ReLU, Tanh} {
			sizes := []int{1 + rng.Intn(70), width}
			for l := 0; l < rng.Intn(3); l++ {
				sizes = append(sizes, 1+rng.Intn(70))
			}
			sizes = append(sizes, 1+rng.Intn(5))
			m, err := NewMLP(rng, act, sizes...)
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.w {
				in := m.sizes[l]
				for o := range m.b[l] {
					m.b[l][o] = signedZeros(rng, 0.3)
					if rng.Intn(8) == 0 {
						clear(m.w[l][o*in : (o+1)*in])
						continue
					}
					for i := o * in; i < (o+1)*in; i++ {
						if rng.Intn(5) == 0 {
							m.w[l][i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
						}
					}
				}
			}
			name := fmt.Sprintf("sizes %v, activation %d", sizes, act)
			got, want := m.NewGrads(), m.NewGrads()
			for l := range got.w {
				for i := range got.w[l] {
					v := signedZeros(rng, 0.2)
					got.w[l][i], want.w[l][i] = v, v
				}
				for i := range got.b[l] {
					v := signedZeros(rng, 0.2)
					got.b[l][i], want.b[l][i] = v, v
				}
			}
			var c, oc Cache
			for sample := 0; sample < 4; sample++ {
				x := make([]float64, m.sizes[0])
				for i := range x {
					x[i] = signedZeros(rng, 0.25)
				}
				dOut := make([]float64, m.sizes[len(m.sizes)-1])
				for i := range dOut {
					dOut[i] = signedZeros(rng, 0.3)
				}
				m.ForwardInto(&c, x)
				oracleForwardInto(m, &oc, x)
				for l := range c.pre {
					if i, ok := sameBits(c.pre[l], oc.pre[l]); !ok {
						t.Fatalf("%s, sample %d: pre-activation [%d][%d] %v, oracle %v", name, sample, l, i, c.pre[l][i], oc.pre[l][i])
					}
					if i, ok := sameBits(c.act[l+1], oc.act[l+1]); !ok {
						t.Fatalf("%s, sample %d: activation [%d][%d] %v, oracle %v", name, sample, l+1, i, c.act[l+1][i], oc.act[l+1][i])
					}
					for _, p := range c.pre[l] {
						if p == 0 && math.Signbit(p) {
							negZeroPre++
						}
					}
				}
				m.Backward(&c, dOut, got)
				oracleBackward(m, &oc, dOut, want)
				for l := range c.grad {
					if i, ok := sameBits(c.grad[l], oc.grad[l]); !ok {
						t.Fatalf("%s, sample %d: delta [%d][%d] %v, oracle %v", name, sample, l, i, c.grad[l][i], oc.grad[l][i])
					}
					for _, d := range c.grad[l] {
						if d == 0 && math.Signbit(d) {
							negZeroDelta++
						}
					}
				}
				for l := range got.w {
					if i, ok := sameBits(got.w[l], want.w[l]); !ok {
						t.Fatalf("%s, sample %d: weight gradient [%d][%d] %v, oracle %v", name, sample, l, i, got.w[l][i], want.w[l][i])
					}
					if i, ok := sameBits(got.b[l], want.b[l]); !ok {
						t.Fatalf("%s, sample %d: bias gradient [%d][%d] %v, oracle %v", name, sample, l, i, got.b[l][i], want.b[l][i])
					}
				}
			}
		}
	}
	if negZeroPre == 0 || negZeroDelta == 0 {
		t.Fatalf("%d −0 pre-activations and %d −0 deltas: the signed-zero cases went unchecked", negZeroPre, negZeroDelta)
	}
	t.Logf("%d −0 pre-activations, %d −0 deltas", negZeroPre, negZeroDelta)
}
