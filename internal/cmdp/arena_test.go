package cmdp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// solutionBits is every float of an LP's outcome as its bit pattern, or
// the error text: what two solves must share to count as the same.
func solutionBits(sol *Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return fmt.Sprint(math.Float64bits(sol.AvgNodes), math.Float64bits(sol.Availability),
		bits(sol.Policy), bits(sol.Occupancy))
}

// kernelBits is every entry of a kernel as its bit pattern.
func kernelBits(m *Model) string {
	var out []uint64
	for _, action := range m.FS {
		for _, row := range action {
			for _, p := range row {
				out = append(out, math.Float64bits(p))
			}
		}
	}
	return fmt.Sprint(m.SMax, m.F, math.Float64bits(m.EpsilonA), out)
}

// TestArenaReuseBitIdentical: a kernel built and solved on an arena that
// last held a larger or a different kernel is the kernel and the solution
// a fresh arena gives, bit for bit (errors by text) — over random shapes,
// survival probabilities (the q = 0 and q = 1 edges among them) and
// constraints, in an order that shrinks and grows the arena, with SolveTo
// writing into a slab of stale values.
func TestArenaReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	shared := new(Arena)
	qs := []float64{0, 1, 0.5, 0.9, 0.95, 0.99, 0.999}
	cases := 300
	if raceEnabled {
		cases = 60
	}
	for i := 0; i < cases; i++ {
		smax := 1 + rng.Intn(40)
		if i%10 == 0 {
			smax = 128
		}
		f := rng.Intn(smax)
		eps := 0.5 + rng.Float64()/2
		q := qs[rng.Intn(len(qs))]
		if rng.Intn(2) == 0 {
			q = 0.8 + rng.Float64()/5
		}
		name := fmt.Sprintf("case %d: smax=%d f=%d eps=%v q=%v", i, smax, f, eps, q)

		fresh := new(Arena)
		wantModel, wantErr := fresh.BinomialModel(smax, f, eps, q, 0)
		gotModel, gotErr := shared.BinomialModel(smax, f, eps, q, 0)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s: kernel error %v on the reused arena, %v on a fresh one", name, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got, want := kernelBits(gotModel), kernelBits(wantModel); got != want {
			t.Fatalf("%s: the reused arena's kernel differs from a fresh arena's", name)
		}
		var wantSol Solution
		wantErr = fresh.SolveTo(wantModel, &wantSol, make([]float64, (1+NumActions)*(smax+1)))
		want := solutionBits(&wantSol, wantErr)

		var sol Solution
		floats := make([]float64, (1+NumActions)*(smax+1))
		for j := range floats {
			floats[j] = rng.NormFloat64()
		}
		err := shared.SolveTo(gotModel, &sol, floats)
		if got := solutionBits(&sol, err); got != want {
			t.Fatalf("%s: the reused arena's solution differs from a fresh arena's:\n got %s\nwant %s", name, got, want)
		}
		if got := solutionBits(Solve(wantModel)); got != want {
			t.Fatalf("%s: the pooled Solve differs from a fresh arena's", name)
		}
	}
}
