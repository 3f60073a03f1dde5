package dist

// Stream is the emulation's random stream: a SplitMix64 generator whose
// methods reproduce, bit for bit, the values a math/rand.Rand built on the
// same SplitMix64 source returns — Float64 is rand.Rand.Float64 (63 bits
// over 2^63, redrawn at 1.0), Intn is rand.Rand.Intn (Int31n's mask and
// rejection rule, Int63n above 2^31-1). This is math/rand's value stream,
// not math/rand/v2's; the two differ in every draw. Being concrete, every
// method inlines into the caller, where rand.Rand pays a method call plus a
// Source interface call per draw.
//
// A *Stream is also a rand.Source64, so code that takes a *rand.Rand can be
// handed rand.New(&stream): rand.Rand buffers nothing between these methods,
// so draws through the view and draws on the stream interleave exactly as
// draws on one rand.Rand would. Seeding is one word (no warm-up loop). The
// zero value is the stream seeded with 0. Not safe for concurrent use.
type Stream struct{ state uint64 }

// Seed repositions the stream at the start of the sequence for seed.
func (s *Stream) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next 64 bits.
func (s *Stream) Uint64() uint64 {
	s.state += GoldenGamma
	return SplitMix64(s.state)
}

// Int63 returns the next non-negative 63-bit integer.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns the next uniform in [0, 1).
func (s *Stream) Float64() float64 {
	for {
		// 63 bits do not fit a float64: values within 2^9 of 2^63 round up
		// to 1.0, which math/rand redraws rather than return.
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Bernoulli draws a Bernoulli(p) outcome; it consumes no draw when p is
// outside (0, 1).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Intn returns the next uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("dist: Stream.Intn: n <= 0")
	}
	if n > 1<<31-1 {
		return int(s.int63n(int64(n)))
	}
	if n&(n-1) == 0 {
		return int(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % int32(n))
}

// int63n is Intn above the 31-bit range (rand.Rand.Int63n).
func (s *Stream) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
