package dist

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestStreamMatchesMathRand is Stream's contract: after Seed, and again
// after re-Seed, every method returns exactly what math/rand.Rand returns
// over the same SplitMix64 outputs, at every position of an interleaved
// call sequence — so replacing one by the other moves no draw.
func TestStreamMatchesMathRand(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 10, 15, 25, 32, 1000, 1 << 20, 1<<31 - 1, 1 << 31, 1<<40 + 12345}
	var s Stream
	want := newOracleRand(0)
	pick := rand.New(rand.NewSource(1)) // chooses the interleaving only
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64, 42} {
		s.Seed(seed)
		want.Seed(seed)
		for i := 0; i < 1_000_000; i++ {
			switch c := pick.Intn(3 + len(bounds)); c {
			case 0:
				if a, b := s.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, a, b)
				}
			case 1:
				if a, b := s.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, a, b)
				}
			case 2:
				if a, b := s.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, a, b)
				}
			default:
				n := bounds[c-3]
				if a, b := s.Intn(n), want.Intn(n); a != b {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, a, b)
				}
			}
		}
	}
}

// TestStreamRedrawsOne covers the branch a million draws never reach: the
// 2^9 Int63 values that round to 1.0 must be skipped, as math/rand skips
// them. The state is placed one step before an output in that range.
func TestStreamRedrawsOne(t *testing.T) {
	// SplitMix64 is a bijection; invert it to find the state whose output
	// is all ones (Int63 = 2^63-1, which rounds to 1.0).
	unmix := func(z uint64) uint64 {
		z ^= z>>31 ^ z>>62
		z *= 0x319642b2d24d8ec3
		z ^= z>>27 ^ z>>54
		z *= 0x96de1b173f119089
		z ^= z>>30 ^ z>>60
		return z
	}
	state := unmix(math.MaxUint64)
	if SplitMix64(state) != math.MaxUint64 {
		t.Fatal("SplitMix64 inverse is wrong")
	}
	s := Stream{state: state - GoldenGamma}
	want := newOracleRand(int64(state - GoldenGamma))
	a, b := s.Float64(), want.Float64()
	if a != b || a >= 1 {
		t.Fatalf("Float64 at a rounds-to-one output: %v, math/rand %v", a, b)
	}
	if a, b := s.Uint64(), want.Uint64(); a != b {
		t.Fatalf("streams out of step after the redraw: %d vs %d", a, b)
	}
}

// TestStreamIsASource64 checks the view handed to *rand.Rand consumers:
// draws through rand.New(&stream) and draws on the stream itself interleave
// as draws on a single generator.
func TestStreamIsASource64(t *testing.T) {
	var s Stream
	s.Seed(9)
	var src rand.Source64 = &s
	view := rand.New(src)
	want := newOracleRand(9)
	for i := 0; i < 1000; i++ {
		if a, b := view.Float64(), want.Float64(); a != b {
			t.Fatalf("draw %d through the view: %v vs %v", i, a, b)
		}
		if a, b := s.Intn(10), want.Intn(10); a != b {
			t.Fatalf("draw %d on the stream: %v vs %v", i, a, b)
		}
		if a, b := view.Intn(3), want.Intn(3); a != b {
			t.Fatalf("draw %d Intn through the view: %v vs %v", i, a, b)
		}
	}
}

// checkQuantile compares Quantile with the binary search at every u where
// the two could part: 0, each cdf entry and its two neighbouring floats,
// the bucket edges of the guide table, and the largest uniform.
func checkQuantile(t *testing.T, c *Categorical, extra ...float64) {
	t.Helper()
	probe := func(u float64) {
		if !(u >= 0 && u < 1) {
			return
		}
		if got, want := c.Quantile(u), searchQuantile(c.cdf, u); got != want {
			t.Fatalf("support %d: Quantile(%v) = %d, binary search %d", c.Len(), u, got, want)
		}
	}
	probe(0)
	probe(math.SmallestNonzeroFloat64)
	probe(1 - 0x1p-53)
	for _, v := range c.cdf {
		probe(v)
		probe(math.Nextafter(v, 0))
		probe(math.Nextafter(v, 2))
	}
	for b := 0; b < quantileBuckets; b++ {
		edge := float64(b) / quantileBuckets
		probe(edge)
		probe(math.Nextafter(edge, 0))
		probe(math.Nextafter(edge, 2))
	}
	for _, u := range extra {
		probe(u)
	}
}

func TestCategoricalQuantile(t *testing.T) {
	denormal := math.SmallestNonzeroFloat64
	cases := map[string][]float64{
		"point":           {1},
		"fair coin":       {1, 1},
		"zero cells":      {0, 0, 3, 0, 1, 0, 0},
		"denormal cells":  {denormal, 1, denormal, denormal, 2, denormal},
		"denormal only":   {denormal, denormal, denormal},
		"one heavy":       {1e-300, 1, 1e-300},
		"table 8 healthy": MustBetaBinomial(10, 0.7, 3).Categorical().Probs(),
		"alert profile":   MustBetaBinomial(31, 0.8, 5).Categorical().Probs(),
		"alert intrusion": MustBetaBinomial(31, 3.2, 1.1).Categorical().Probs(),
	}
	for _, support := range []int{64, 65, 255, 256, 257, 300} {
		uniform := make([]float64, support)
		geometric := make([]float64, support)
		tail := make([]float64, support) // all mass past index 255
		for i := range uniform {
			uniform[i] = 1
			geometric[i] = math.Pow(0.9, float64(i))
			if i >= 256 {
				tail[i] = 1
			}
		}
		cases["uniform "+strconv.Itoa(support)] = uniform
		cases["geometric "+strconv.Itoa(support)] = geometric
		if support > 256 {
			cases["tail "+strconv.Itoa(support)] = tail
		}
	}
	rng := rand.New(rand.NewSource(21))
	for name, probs := range cases {
		t.Run(name, func(t *testing.T) {
			c := MustCategorical(probs)
			checkQuantile(t, c)
			for i := 0; i < 20000; i++ {
				u := rng.Float64()
				if got, want := c.Quantile(u), searchQuantile(c.cdf, u); got != want {
					t.Fatalf("Quantile(%v) = %d, binary search %d", u, got, want)
				}
			}
		})
	}
	// Outside [0, 1) the answer is clamped to the support, never a panic.
	c := MustCategorical([]float64{1, 2, 3})
	for u, want := range map[float64]int{-1: 0, -1e300: 0, math.Inf(-1): 0, 1: 2, 1.5: 2, 1e300: 2, math.Inf(1): 2} {
		if got := c.Quantile(u); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", u, got, want)
		}
	}
	if got := c.Quantile(math.NaN()); got < 0 || got > 2 {
		t.Errorf("Quantile(NaN) = %d, outside the support", got)
	}
}

// fuzzPMF decodes fuzz bytes into a weight vector with support 1..300:
// two bytes of length, then one byte per cell, where small byte values
// stand for the awkward weights (zero, denormal, tiny) a plain byte-to-float
// map would never produce.
func fuzzPMF(data []byte) []float64 {
	n := 1
	if len(data) >= 2 {
		n = 1 + (int(data[0])|int(data[1])<<8)%300
		data = data[2:]
	}
	probs := make([]float64, n)
	positive := false
	for i := range probs {
		if len(data) == 0 {
			break
		}
		b := data[i%len(data)]
		switch b {
		case 0, 1, 2:
			probs[i] = 0
		case 3:
			probs[i] = math.SmallestNonzeroFloat64
		case 4:
			probs[i] = 1e-300
		case 5:
			probs[i] = 0x1p-60
		default:
			probs[i] = float64(b)
		}
		positive = positive || probs[i] > 0
	}
	if !positive {
		probs[len(probs)/2] = 1
	}
	return probs
}

// FuzzCategoricalQuantile holds the guided lookup to the binary search on
// arbitrary pmfs, at every cdf entry's neighbourhood and at a fuzzed u. The
// seed corpus is testdata/fuzz/FuzzCategoricalQuantile.
func FuzzCategoricalQuantile(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, u float64) {
		c, err := NewCategorical(fuzzPMF(data))
		if err != nil {
			t.Skip()
		}
		u = math.Abs(u)
		if u >= 1 {
			u = math.Mod(u, 1)
		}
		checkQuantile(t, c, u)
	})
}

var (
	sinkInt   int
	sinkFloat float64
)

// BenchmarkStreamFloat64 is the cost of one uniform on the concrete stream;
// the rand.Rand sub-benchmark is the same generator behind math/rand's
// wrapper and Source interface, which is what the emulation used to pay.
func BenchmarkStreamFloat64(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		var s Stream
		s.Seed(1)
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += s.Float64()
		}
		sinkFloat = acc
	})
	b.Run("rand.Rand", func(b *testing.B) {
		r := newOracleRand(1)
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += r.Float64()
		}
		sinkFloat = acc
	})
}

// BenchmarkCategoricalQuantile draws from a 32-cell alert profile (the
// emulation's per-node observation); the search sub-benchmark is the binary
// search on the same cdf and uniforms.
func BenchmarkCategoricalQuantile(b *testing.B) {
	c := MustBetaBinomial(31, 0.8, 5).Categorical()
	b.Run("guided", func(b *testing.B) {
		var s Stream
		s.Seed(1)
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += c.Quantile(s.Float64())
		}
		sinkInt = acc
	})
	b.Run("search", func(b *testing.B) {
		var s Stream
		s.Seed(1)
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += searchQuantile(c.cdf, s.Float64())
		}
		sinkInt = acc
	})
}
