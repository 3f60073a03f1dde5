package cmdp

import (
	"errors"
	"math"
	"math/big"
	"testing"
)

// TestMTTFClosedFormAtMinimalN1 checks the closed form at n1 = 2f+k+1: one
// more failure ends the system, so T(f) is geometric with success
// probability 1 - q^n1 and E[T(f)] = 1/(1 - q^n1).
func TestMTTFClosedFormAtMinimalN1(t *testing.T) {
	for _, fk := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {3, 1}} {
		n1 := 2*fk[0] + fk[1] + 1
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			got, err := MTTF(n1, fk[0], fk[1], q)
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 / (1 - math.Pow(q, float64(n1))); math.Abs(got-want) > 1e-12*want {
				t.Errorf("n1=%d q=%v: MTTF = %v, want %v", n1, q, got, want)
			}
		}
	}
}

// TestReliabilityClosedFormAtMinimalN1 checks R(t) = q^(n1 t) at n1 =
// 2f+k+1: the system survives t steps iff every node does.
func TestReliabilityClosedFormAtMinimalN1(t *testing.T) {
	for _, fk := range [][2]int{{0, 0}, {1, 0}, {3, 1}} {
		n1 := 2*fk[0] + fk[1] + 1
		for _, q := range []float64{0.5, 0.9, 0.99} {
			r, err := Reliability(n1, fk[0], fk[1], 20, q)
			if err != nil {
				t.Fatal(err)
			}
			for tt, got := range r {
				if want := math.Pow(q, float64(n1*tt)); math.Abs(got-want) > 1e-12*want {
					t.Errorf("n1=%d q=%v: R(%d) = %v, want %v", n1, q, tt, got, want)
				}
			}
		}
	}
}

// TestMTTFInfiniteAtQOne: with no node ever failing the failure set is
// never reached.
func TestMTTFInfiniteAtQOne(t *testing.T) {
	for _, n1 := range []int{3, 4, 20} {
		got, err := MTTF(n1, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(got, 1) {
			t.Errorf("n1=%d: MTTF = %v, want +Inf", n1, got)
		}
	}
}

// TestMTTFZeroInsideFailureSet: a system that starts with fewer than
// 2f+k+1 nodes has already failed, and R is 0 from t = 0.
func TestMTTFZeroInsideFailureSet(t *testing.T) {
	for n1 := 1; n1 < 2*3+1+1; n1++ {
		for _, q := range []float64{0, 0.5, 1} {
			got, err := MTTF(n1, 3, 1, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Errorf("n1=%d q=%v: MTTF = %v, want 0", n1, q, got)
			}
			r, err := Reliability(n1, 3, 1, 5, q)
			if err != nil {
				t.Fatal(err)
			}
			for tt, v := range r {
				if v != 0 {
					t.Errorf("n1=%d q=%v: R(%d) = %v, want 0", n1, q, tt, v)
				}
			}
		}
	}
}

// TestReliabilityMonotoneAndBounded: R(0) = 1, and R never increases or
// leaves [0, 1].
func TestReliabilityMonotoneAndBounded(t *testing.T) {
	for _, n1 := range []int{4, 9, 25, 60} {
		for _, q := range []float64{0, 0.3, 0.9, 0.999, 1} {
			r, err := Reliability(n1, 1, 1, 50, q)
			if err != nil {
				t.Fatal(err)
			}
			if r[0] != 1 {
				t.Errorf("n1=%d q=%v: R(0) = %v, want 1", n1, q, r[0])
			}
			for tt := 1; tt < len(r); tt++ {
				if r[tt] > r[tt-1]+1e-12 || r[tt] < 0 || r[tt] > 1+1e-12 {
					t.Fatalf("n1=%d q=%v: R(%d) = %v after R(%d) = %v", n1, q, tt, r[tt], tt-1, r[tt-1])
				}
			}
		}
	}
}

func TestFig6InputValidation(t *testing.T) {
	if _, err := MTTF(0, 1, 0, 0.9); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("n1 = 0: err %v, want ErrInvalidModel", err)
	}
	if _, err := MTTF(5, 1, 0, math.NaN()); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("q = NaN: err %v, want ErrInvalidModel", err)
	}
	if _, err := Reliability(0, 1, 0, 10, 0.9); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("Reliability n1 = 0: err %v, want ErrInvalidModel", err)
	}
	if _, err := Reliability(5, 1, 0, 10, 1.5); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("Reliability q = 1.5: err %v, want ErrInvalidModel", err)
	}
	if _, err := Reliability(5, 1, 0, -1, 0.9); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("negative horizon: err %v, want ErrInvalidModel", err)
	}
}

// exactMTTF is the oracle of TestMTTFMatchesExactOracle: the hitting time
// of {0, ..., 2f+k} from n1 in 512-bit arithmetic, on the exact binomial
// probabilities of the float64 q, with 1 - q^s as each state's leaving
// probability.
func exactMTTF(n1, f, k int, q float64) *big.Float {
	const prec = 512
	newF := func() *big.Float { return new(big.Float).SetPrec(prec) }
	bq := newF().SetFloat64(q)
	bp := newF().Sub(newF().SetInt64(1), bq)
	pow := func(x *big.Float, e int) *big.Float {
		r := newF().SetInt64(1)
		for range e {
			r.Mul(r, x)
		}
		return r
	}
	lo := max(2*f+k+1, 0)
	h := make([]*big.Float, n1+1)
	for s := lo; s <= n1; s++ {
		num := newF().SetInt64(1)
		for s2 := lo; s2 < s; s2++ {
			// P(s, s2) = C(s, s2) q^s2 (1-q)^(s-s2).
			p := newF().SetInt(new(big.Int).Binomial(int64(s), int64(s2)))
			p.Mul(p, pow(bq, s2))
			p.Mul(p, pow(bp, s-s2))
			num.Add(num, p.Mul(p, h[s2]))
		}
		h[s] = num.Quo(num, newF().Sub(newF().SetInt64(1), pow(bq, s)))
	}
	return h[n1]
}

// relErr returns |got - want| / want, want computed exactly.
func relErr(got float64, want *big.Float) float64 {
	d := new(big.Float).SetPrec(512).SetFloat64(got)
	d.Sub(d, want).Quo(d, want)
	r, _ := d.Float64()
	return math.Abs(r)
}

// TestMTTFMatchesExactOracle holds MTTF to 1e-14 relative of the exact
// hitting time, up to q = 1 - 1e-9 where 1 - P(s, s) has lost nine digits.
func TestMTTFMatchesExactOracle(t *testing.T) {
	n1s := []int{1, 2, 3, 4, 5, 6, 7, 9, 13, 20, 31, 47, 64}
	pairs := [][2]int{{0, 0}, {1, 0}, {1, 1}, {3, 1}, {7, 2}}
	qs := []float64{1e-3, 0.1, 0.5, 0.8, 0.9, 0.97, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9}
	for _, n1 := range n1s {
		for _, fk := range pairs {
			if n1 < 2*fk[0]+fk[1]+1 {
				continue
			}
			for _, q := range qs {
				got, err := MTTF(n1, fk[0], fk[1], q)
				if err != nil {
					t.Fatal(err)
				}
				if e := relErr(got, exactMTTF(n1, fk[0], fk[1], q)); !(e <= 1e-14) {
					t.Errorf("n1=%d f=%d k=%d q=%v: MTTF = %v, relative error %g", n1, fk[0], fk[1], q, got, e)
				}
			}
		}
	}
}

// TestMTTFFiniteNearQOne: at q = 1 - 1e-13 every node still fails
// eventually, so the MTTF is finite (5.83e12 for n1 = 4, f = 1, k = 0) even
// though 1 - P(s, s) is below any pivot cut-off a dense elimination of
// I - Q would use.
func TestMTTFFiniteNearQOne(t *testing.T) {
	for _, n1 := range []int{4, 13, 64} {
		q := 1 - 1e-13
		got, err := MTTF(n1, 1, 0, q)
		if err != nil {
			t.Fatal(err)
		}
		want := exactMTTF(n1, 1, 0, q)
		if e := relErr(got, want); math.IsInf(got, 0) || !(e <= 1e-14) {
			t.Errorf("n1=%d: MTTF = %v, exact %s (relative error %g)", n1, got, want.Text('g', 6), e)
		}
	}
}
