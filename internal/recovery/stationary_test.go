package recovery

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tolerance/internal/nodemodel"
)

// bisectStationary is the stationary root finder SolveDP used before regula
// falsi, kept as the oracle the regula falsi is held to: 40 halvings of
// [0, eta+1] on the sign of the cycle-start value, then one more solve at
// the midpoint.
func (d *dpSolver) bisectStationary() (rho float64, w []float64, err error) {
	lo, hi := 0.0, d.p.Eta+1
	for it := 0; it < 40; it++ {
		rho = (lo + hi) / 2
		w, err = d.stoppingValue(rho)
		if err != nil {
			if d.expectReset(w) >= 0 {
				return 0, nil, err
			}
			hi = rho
			d.warm = false
			continue
		}
		if d.expectReset(w) > 0 {
			lo = rho
		} else {
			hi = rho
		}
	}
	rho = (lo + hi) / 2
	w, err = d.stoppingValue(rho)
	return rho, w, err
}

// solveStationaryBisect is SolveDP's stationary path with the oracle root
// finder.
func solveStationaryBisect(p nodemodel.Params, gridSize int) (*DPSolution, error) {
	d := &dpSolver{p: p, cfg: DPConfig{DeltaR: InfiniteDeltaR, GridSize: gridSize}.withDefaults(), ar: NewArena()}
	d.prepare()
	rho, w, err := d.bisectStationary()
	if err != nil {
		return nil, err
	}
	return &DPSolution{AvgCost: rho, ThresholdStrategy: ThresholdStrategy{Thresholds: []float64{d.stationaryThreshold(rho, w)}}}, nil
}

// TestStationaryRootMatchesBisection holds the regula falsi to the bisection
// over random node models: the same threshold bit for bit and the average
// cost within 1e-9 — both stop inside the stopping value's 1e-10 tolerance,
// so they agree on rho to about that, not to the bit. A model the bisection
// cannot solve must fail the regula falsi too.
func TestStationaryRootMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cases := 24
	if testing.Short() {
		cases = 8
	}
	for c := 0; c < cases; c++ {
		p := nodemodel.DefaultParams()
		p.PA = 0.02 + 0.38*rng.Float64()
		p.Eta = 1 + 5*rng.Float64()
		p.PU = 0.1 * rng.Float64()
		gridSize := []int{300, 500}[c%2]

		want, werr := solveStationaryBisect(p, gridSize)
		got, gerr := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: gridSize})
		if werr != nil {
			if !errors.Is(gerr, ErrDPNotConverged) {
				t.Errorf("pA=%.4f eta=%.3f pU=%.4f g=%d: bisection fails (%v), regula falsi returns %v",
					p.PA, p.Eta, p.PU, gridSize, werr, gerr)
			}
			continue
		}
		if gerr != nil {
			t.Errorf("pA=%.4f eta=%.3f pU=%.4f g=%d: %v (bisection rho %v)", p.PA, p.Eta, p.PU, gridSize, gerr, want.AvgCost)
			continue
		}
		if got.Thresholds[0] != want.Thresholds[0] {
			t.Errorf("pA=%.4f eta=%.3f pU=%.4f g=%d: threshold %v, bisection %v",
				p.PA, p.Eta, p.PU, gridSize, got.Thresholds[0], want.Thresholds[0])
		}
		if d := math.Abs(got.AvgCost - want.AvgCost); d > 1e-9 {
			t.Errorf("pA=%.4f eta=%.3f pU=%.4f g=%d: rho %v, bisection %v (|Δ| = %g)",
				p.PA, p.Eta, p.PU, gridSize, got.AvgCost, want.AvgCost, d)
		}
	}
}

// TestSolveDPStationaryUnsolvable pins the two stationary inputs the solver
// cannot solve — pA = 0.001 mixes too slowly for the stopping-value
// iteration, and pA = 1 with eta = 1 makes waiting and recovering cost the
// same — to a typed error: never a threshold.
func TestSolveDPStationaryUnsolvable(t *testing.T) {
	for _, c := range []struct{ pa, eta float64 }{{0.001, 2}, {1, 1}} {
		p := nodemodel.DefaultParams()
		p.PA, p.Eta = c.pa, c.eta
		sol, err := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR})
		if !errors.Is(err, ErrDPNotConverged) || sol != nil {
			t.Errorf("pA=%v eta=%v: solution %+v, err %v; want ErrDPNotConverged", c.pa, c.eta, sol, err)
		}
	}
}
