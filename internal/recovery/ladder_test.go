package recovery

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
)

// inductWindow is the per-DeltaR backward induction SolveDP ran before the
// ladder, kept as the oracle the ladder is held to: position DeltaR carries
// the forced recovery (cost 1) and ends the window; earlier positions choose
// between waiting (cost eta*b) and recovering (cost 1, belief reset to pA).
// Each stage reads the next one only through expectReset and expectWaitAll,
// both done before the stage writes, so one arena buffer holds V(., k+1)
// and is overwritten in place by V(., k). thresholds holds
// max(DeltaR-1, 1) entries (position k's threshold at index k-1; untouched
// for DeltaR = 1).
func (d *dpSolver) inductWindow(thresholds []float64) float64 {
	p := d.p
	deltaR := d.cfg.DeltaR
	v := d.buf0
	for i := range v {
		v[i] = 1 // forced recovery cost; window ends here
	}

	for k := deltaR - 1; k >= 1; k-- {
		recoverVal := 1 + d.expectReset(v)
		d.expectWaitAll(v, d.accBuf)
		threshold := 1.0
		set := false
		for i, b := range d.grid {
			waitVal := p.Eta*b + d.accBuf[i]
			if recoverVal <= waitVal {
				v[i] = recoverVal
				if !set {
					threshold = b
					set = true
				}
			} else {
				v[i] = waitVal
			}
		}
		thresholds[k-1] = threshold
	}

	if deltaR == 1 {
		return 1 // every step is a forced recovery
	}
	return d.expectReset(v) / float64(deltaR)
}

// solveWindowOracle is SolveDP's finite branch before the ladder.
func solveWindowOracle(p nodemodel.Params, deltaR, gridSize int) *DPSolution {
	d := &dpSolver{p: p, cfg: DPConfig{DeltaR: deltaR, GridSize: gridSize}.withDefaults(), ar: NewArena()}
	d.prepare()
	thresholds := make([]float64, max(deltaR-1, 1))
	avg := d.inductWindow(thresholds)
	if deltaR == 1 {
		thresholds[0] = 0
	}
	return &DPSolution{AvgCost: avg, Thresholds: thresholds}
}

// sameSolution reports the first difference between two solutions, held
// to == on every float. It only calls t.Errorf, so goroutines may use it.
func sameSolution(t *testing.T, what string, got, want *DPSolution) {
	t.Helper()
	if got.AvgCost != want.AvgCost {
		t.Errorf("%s: AvgCost %v, oracle %v", what, got.AvgCost, want.AvgCost)
	}
	if len(got.Thresholds) != len(want.Thresholds) {
		t.Errorf("%s: %d thresholds, oracle %d", what, len(got.Thresholds), len(want.Thresholds))
		return
	}
	for i := range got.Thresholds {
		if got.Thresholds[i] != want.Thresholds[i] {
			t.Errorf("%s: threshold %d: %v, oracle %v", what, i+1, got.Thresholds[i], want.Thresholds[i])
			return
		}
	}
}

// randomLadderModel draws a valid node model: attack, crash and update
// probabilities, eta, and a random beta-binomial alert pair of a random
// support size.
func randomLadderModel(rng *rand.Rand) nodemodel.Params {
	n := 1 + rng.Intn(12)
	return nodemodel.Params{
		PA:           0.005 + 0.6*rng.Float64(),
		PC1:          1e-4 * rng.Float64(),
		PC2:          1e-2 * rng.Float64(),
		PU:           0.1 * rng.Float64(),
		Eta:          1 + 9*rng.Float64(),
		ZHealthy:     dist.MustBetaBinomial(n, 0.2+3*rng.Float64(), 0.2+3*rng.Float64()).Categorical(),
		ZCompromised: dist.MustBetaBinomial(n, 0.2+3*rng.Float64(), 0.2+3*rng.Float64()).Categorical(),
	}
}

// TestLadderMatchesPerWindowInduction is the ladder's property test: over
// random valid models on grids of 300 and 500, every window DeltaR in 1..200
// read from a ladder — extended in random orders, and from concurrent
// goroutines — and every SolveDPWith solve is == to the per-DeltaR
// induction oracle, thresholds and average cost.
func TestLadderMatchesPerWindowInduction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := 8
	windows := 24
	if testing.Short() {
		models, windows = 4, 12
	}
	for m := 0; m < models; m++ {
		p := randomLadderModel(rng)
		gridSize := []int{300, 500}[m%2]
		// Windows to check: the ends of the range plus random ones.
		deltaRs := []int{1, 2, 200}
		for range windows {
			deltaRs = append(deltaRs, 1+rng.Intn(200))
		}
		oracle := make(map[int]*DPSolution, len(deltaRs))
		for _, dr := range deltaRs {
			if oracle[dr] == nil {
				oracle[dr] = solveWindowOracle(p, dr, gridSize)
			}
		}

		// Sequential: extensions to random depths on one reused arena, each
		// window read after the extension that covers it; and SolveDPWith's
		// one-window ladder on an arena shared across the windows.
		seq, err := NewLadder(p, gridSize)
		if err != nil {
			t.Fatal(err)
		}
		arena, solveArena := NewArena(), NewArena()
		for _, i := range rng.Perm(len(deltaRs)) {
			dr := deltaRs[i]
			what := fmt.Sprintf("model %d grid %d deltaR %d", m, gridSize, dr)
			seq.Extend(rng.Intn(dr+1), arena) // may fall short: Window finishes the climb
			got, err := seq.Window(dr)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, what, got, oracle[dr])
			got, err = SolveDPWith(p, DPConfig{DeltaR: dr, GridSize: gridSize}, solveArena)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, "SolveDPWith "+what, got, oracle[dr])
		}
		if seq.Depth() != 199 {
			t.Errorf("model %d: ladder depth %d after a DeltaR = 200 window, want 199", m, seq.Depth())
		}

		// Concurrent: goroutines extend and read one shared ladder in
		// their own random orders.
		shared, err := NewLadder(p, gridSize)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			order := rng.Perm(len(deltaRs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				arena := NewArena()
				for _, i := range order {
					dr := deltaRs[i]
					shared.Extend(dr-1, arena)
					got, err := shared.Window(dr)
					if err != nil {
						t.Error(err)
						return
					}
					sameSolution(t, fmt.Sprintf("model %d grid %d deltaR %d", m, gridSize, dr), got, oracle[dr])
				}
			}()
		}
		wg.Wait()
	}
}

// TestLadderWindowRejectsBadDeltaR pins the window's domain: DeltaR >= 1
// (the stationary problem is SolveDP's).
func TestLadderWindowRejectsBadDeltaR(t *testing.T) {
	l, err := NewLadder(nodemodel.DefaultParams(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, dr := range []int{InfiniteDeltaR, -3} {
		if sol, err := l.Window(dr); err == nil {
			t.Errorf("Window(%d) = %+v, want an error", dr, sol)
		}
	}
	if _, err := NewLadder(nodemodel.Params{}, 100); err == nil {
		t.Error("NewLadder accepted a model with no observation distributions")
	}
}

// TestSolveDPWindowAllocations pins SolveDP's finite branch to the
// allocation count of the per-DeltaR induction it replaced: on a warm arena
// a solve allocates its thresholds and its solution, nothing else.
func TestSolveDPWindowAllocations(t *testing.T) {
	p := nodemodel.DefaultParams()
	arena := NewArena()
	for _, dr := range []int{1, 15} {
		cfg := DPConfig{DeltaR: dr}
		if _, err := SolveDPWith(p, cfg, arena); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := SolveDPWith(p, cfg, arena); err != nil {
				t.Fatal(err)
			}
		}); n != 2 {
			t.Errorf("deltaR %d: warm-arena solve allocates %v times, want 2", dr, n)
		}
	}
}
