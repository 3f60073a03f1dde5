package opt

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64, any NaN matching
// any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkGPIncremental grows a random point set point by point, as BO does,
// and holds the incremental gp to the oracle after every point: the fit's
// error, every factor row, yMean and α bit for bit, and for random probes
// and bounds, the acquisition. A fully scored acquisition must equal the
// oracle's μ − β√σ² bit for bit; a candidate that stopped early must have
// a floor ≥ its bound, and the oracle's acquisition must be ≥ that floor,
// so it could not have won.
//
// The seed picks a dimension in 1–4 and one of three regimes: a plain one;
// a NoiseVar of 1e-300 with repeated points, which makes the plain factor
// fail so the jitter retry runs; and a signal variance of 1e12 with
// repeated points, which swallows the jitter so the jittered factor fails
// too. Now and then the set is replaced by a subset, as selectGPPoints
// does past MaxGPPoints, and the gp is reset.
func checkGPIncremental(t testing.TB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dim := 1 + rng.Intn(4)
	steps := 1 + rng.Intn(40)
	lengthScale := []float64{0.05, 0.2, 1, 1e3}[rng.Intn(4)]
	signalVar, noise, dupRate := 1.0, 1e-4, 0.0
	switch rng.Intn(3) {
	case 1:
		noise, dupRate = 1e-300, 0.3
	case 2:
		signalVar, noise, dupRate = 1e12, 1e-300, 0.3
	}
	inc := newGP(lengthScale, signalVar, noise, rng.Intn(steps+1))
	var xs [][]float64
	var ys []float64
	var norm []float64
	for step := 0; step < steps; step++ {
		if len(xs) > 3 && rng.Intn(8) == 0 {
			// Keep a subset in order, as a new conditioning set.
			var kx [][]float64
			var ky []float64
			for i := range xs {
				if rng.Intn(3) > 0 {
					kx, ky = append(kx, xs[i]), append(ky, ys[i])
				}
			}
			if len(kx) > 0 {
				xs, ys = kx, ky
				inc.reset()
			}
		}
		x := make([]float64, dim)
		if len(xs) > 0 && rng.Float64() < dupRate {
			copy(x, xs[rng.Intn(len(xs))])
		} else {
			for i := range x {
				x[i] = rng.Float64()
			}
			clamp01(x)
		}
		xs = append(xs, x)
		y := rng.NormFloat64()
		if rng.Intn(10) == 0 {
			y = 0.5
		}
		ys = append(ys, y)

		norm = normalizeInto(norm, ys)
		want := normalize(ys)
		for i := range want {
			if !sameBits(norm[i], want[i]) {
				t.Fatalf("seed %d step %d: normalized y[%d] = %v, oracle %v", seed, step, i, norm[i], want[i])
			}
		}
		ora := newOracleGP(lengthScale, signalVar, noise)
		errInc, errOra := inc.fit(xs, norm), ora.fit(xs, want)
		if (errInc == nil) != (errOra == nil) {
			t.Fatalf("seed %d step %d (%d points): fit error %v, oracle %v", seed, step, len(xs), errInc, errOra)
		}
		if errInc != nil {
			continue
		}
		n := len(xs)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got := inc.chol[i*(i+1)/2+j]; !sameBits(got, ora.chol[i][j]) {
					t.Fatalf("seed %d step %d (%d points): L[%d][%d] = %v, oracle %v", seed, step, n, i, j, got, ora.chol[i][j])
				}
			}
		}
		if !sameBits(inc.yMean, ora.yMean) {
			t.Fatalf("seed %d step %d: yMean %v, oracle %v", seed, step, inc.yMean, ora.yMean)
		}
		for i := range ora.alpha {
			if !sameBits(inc.alpha[i], ora.alpha[i]) {
				t.Fatalf("seed %d step %d: alpha[%d] = %v, oracle %v", seed, step, i, inc.alpha[i], ora.alpha[i])
			}
		}
		for c := 0; c < 8; c++ {
			probe := make([]float64, dim)
			for i := range probe {
				probe[i] = rng.Float64()*1.2 - 0.1
			}
			if c == 0 {
				copy(probe, xs[rng.Intn(n)])
			}
			clamp01(probe)
			beta := []float64{2.5, 2.5, 0, 1, -1}[rng.Intn(5)]
			mu, v := ora.predict(probe)
			want := mu - beta*math.Sqrt(v)
			best := []float64{
				math.Inf(1), want, math.Nextafter(want, math.Inf(1)), math.Nextafter(want, math.Inf(-1)),
				want + 1e-12, want - 1e-12, want + 0.1, want - 0.1, rng.NormFloat64(),
			}[rng.Intn(9)]
			acq, full := inc.lcb(probe, beta, best)
			switch {
			case full && !sameBits(acq, want):
				t.Fatalf("seed %d step %d (%d points): acquisition %v, oracle %v", seed, step, n, acq, want)
			case !full && (beta < 0 || !(acq >= best) || want < acq || want < best):
				t.Fatalf("seed %d step %d (%d points): stopped with floor %v at bound %v (beta %v), oracle acquisition %v",
					seed, step, n, acq, best, beta, want)
			}
		}
	}
}

// TestGPIncrementalMatchesOracle holds the incremental factor, α and the
// acquisition to the oracle that refits from scratch.
func TestGPIncrementalMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 600; seed++ {
		checkGPIncremental(t, seed)
	}
}

func FuzzGPIncremental(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkGPIncremental(t, seed) })
}

// TestBOAcquisitionZeroAllocs is an allocation budget: conditioning a warm
// gp on one more point and scoring a step's 256 candidates allocates
// nothing, and most candidates stop early.
func TestBOAcquisitionZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim, start, runs = 3, 40, 50
	xs := make([][]float64, start+runs+1)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		ys[i] = deterministicObjective(xs[i])
	}
	probes := make([][]float64, 256)
	for i := range probes {
		probes[i] = make([]float64, dim)
		for j := range probes[i] {
			probes[i][j] = rng.Float64()
		}
	}
	g := newGP(0.2, 1, 1e-4, len(xs))
	norm := make([]float64, 0, len(xs))
	n, scored, stopped := start, 0, 0
	norm = normalizeInto(norm, ys[:n])
	if err := g.fit(xs[:n], norm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		n++
		norm = normalizeInto(norm, ys[:n])
		if err := g.fit(xs[:n], norm); err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, p := range probes {
			acq, full := g.lcb(p, 2.5, best)
			if !full {
				stopped++
			}
			scored++
			if acq < best {
				best = acq
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a one-row extension and 256 candidates allocate %v times, want 0", allocs)
	}
	if stopped == 0 {
		t.Errorf("no candidate of %d stopped early", scored)
	}
	t.Logf("%d of %d candidates stopped early (%.1f %%)", stopped, scored, 100*float64(stopped)/float64(scored))
}

// TestBOAllocationsGrowByStoredPoints is a size budget: BO at budget 100
// allocates more than at budget 50 only for the 50 points it stores (one
// slice a step) and the best-so-far trace's growth, nothing a candidate.
// Past MaxGPPoints (160) a step also selects the conditioning set and
// refits, in buffers the loop reuses, so budget 200 allocates at most two
// more times a step than budget 160.
func TestBOAllocationsGrowByStoredPoints(t *testing.T) {
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := (BO{}).Minimize(rand.New(rand.NewSource(11)), 3, each(deterministicObjective), budget, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(100)
	if extra := large - small; extra > 50+10 {
		t.Errorf("BO allocates %v times at budget 50 and %v at 100: %v more for 50 more steps", small, large, extra)
	}
	atCap, past := allocs(160), allocs(200)
	if extra := past - atCap; extra > 2*40 {
		t.Errorf("BO allocates %v times at budget 160 and %v at 200: %v more for 40 steps past MaxGPPoints", atCap, past, extra)
	} else {
		t.Logf("BO allocates %v times at budget 160 and %v at 200", atCap, past)
	}
}
