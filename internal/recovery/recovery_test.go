package recovery

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
)

func TestThresholdDim(t *testing.T) {
	tests := []struct {
		deltaR, want int
	}{
		{InfiniteDeltaR, 1},
		{1, 1},
		{2, 1},
		{5, 4},
		{15, 14},
		{25, 24},
	}
	for _, tt := range tests {
		if got := ThresholdDim(tt.deltaR); got != tt.want {
			t.Errorf("ThresholdDim(%d) = %d, want %d", tt.deltaR, got, tt.want)
		}
	}
}

func TestNewThresholdStrategyValidation(t *testing.T) {
	if _, err := NewThresholdStrategy(nil, 5); err == nil {
		t.Error("empty thresholds should fail")
	}
	if _, err := NewThresholdStrategy([]float64{1.5}, InfiniteDeltaR); err == nil {
		t.Error("out-of-range threshold should fail")
	}
	if _, err := NewThresholdStrategy([]float64{0.5, 0.5}, 5); err == nil {
		t.Error("wrong dimension for deltaR=5 should fail")
	}
	if _, err := NewThresholdStrategy([]float64{0.5}, -1); err == nil {
		t.Error("negative deltaR should fail")
	}
	s, err := NewThresholdStrategy([]float64{0.1, 0.2, 0.3, 0.4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Threshold(2) != 0.2 {
		t.Errorf("Threshold(2) = %v", s.Threshold(2))
	}
	// Clamping.
	if s.Threshold(0) != 0.1 || s.Threshold(99) != 0.4 {
		t.Error("threshold clamping broken")
	}
}

func TestThresholdStrategyAction(t *testing.T) {
	s := &ThresholdStrategy{Thresholds: []float64{0.7}, DeltaR: InfiniteDeltaR}
	if s.Action(0.69, 1) != nodemodel.Wait {
		t.Error("below threshold should wait")
	}
	if s.Action(0.7, 1) != nodemodel.Recover {
		t.Error("at threshold should recover (eq. 7)")
	}
}

func TestEvaluateNoRecoveryHighCost(t *testing.T) {
	p := nodemodel.DefaultParams()
	rng := rand.New(rand.NewSource(1))
	m, err := Evaluate(rng, p, NeverRecover{}, SimConfig{Episodes: 40, Horizon: 200, DeltaR: InfiniteDeltaR})
	if err != nil {
		t.Fatal(err)
	}
	// Without recovery the node drifts into the compromised state and pays
	// eta per step: the average cost approaches eta.
	if m.AvgCost < 1 {
		t.Errorf("no-recovery cost = %v, want > 1", m.AvgCost)
	}
	if m.RecoveryFrequency != 0 {
		t.Errorf("recovery frequency = %v, want 0", m.RecoveryFrequency)
	}
	if m.TimeToRecovery < NoRecoveryPenalty/2 {
		t.Errorf("T(R) = %v, want near penalty %d", m.TimeToRecovery, NoRecoveryPenalty)
	}
}

func TestEvaluateAlwaysRecoverCostOne(t *testing.T) {
	p := nodemodel.DefaultParams()
	rng := rand.New(rand.NewSource(2))
	m, err := Evaluate(rng, p, AlwaysRecover{}, SimConfig{Episodes: 20, Horizon: 200, DeltaR: InfiniteDeltaR})
	if err != nil {
		t.Fatal(err)
	}
	// Recovering every step costs exactly 1 per step.
	if math.Abs(m.AvgCost-1) > 1e-9 {
		t.Errorf("always-recover cost = %v, want 1", m.AvgCost)
	}
	if math.Abs(m.RecoveryFrequency-1) > 1e-9 {
		t.Errorf("recovery frequency = %v, want 1", m.RecoveryFrequency)
	}
}

func TestEvaluateThresholdBeatsExtremes(t *testing.T) {
	p := nodemodel.DefaultParams()
	s := &ThresholdStrategy{Thresholds: []float64{0.7}, DeltaR: InfiniteDeltaR}
	cfg := SimConfig{Episodes: 60, Horizon: 200, DeltaR: InfiniteDeltaR}

	rng := rand.New(rand.NewSource(3))
	mT, err := Evaluate(rng, p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(3))
	mNever, err := Evaluate(rng, p, NeverRecover{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(3))
	mAlways, err := Evaluate(rng, p, AlwaysRecover{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mT.AvgCost >= mNever.AvgCost {
		t.Errorf("threshold cost %v not better than never %v", mT.AvgCost, mNever.AvgCost)
	}
	if mT.AvgCost >= mAlways.AvgCost {
		t.Errorf("threshold cost %v not better than always %v", mT.AvgCost, mAlways.AvgCost)
	}
	// Feedback control reacts within a few steps (paper: T(R) ~ 1.4).
	if mT.TimeToRecovery > 20 {
		t.Errorf("threshold T(R) = %v, want small", mT.TimeToRecovery)
	}
}

func TestEvaluateBTRForcesRecoveries(t *testing.T) {
	p := nodemodel.DefaultParams()
	cfg := SimConfig{Episodes: 20, Horizon: 200, DeltaR: 10}
	rng := rand.New(rand.NewSource(4))
	m, err := Evaluate(rng, p, NeverRecover{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Calendar recoveries every 10 steps: frequency ~0.1 even though the
	// strategy itself never recovers.
	if m.RecoveryFrequency < 0.05 {
		t.Errorf("F(R) = %v, want ~0.1 under BTR", m.RecoveryFrequency)
	}
	// And T(R) is bounded by ~DeltaR.
	if m.TimeToRecovery > 3*10 {
		t.Errorf("T(R) = %v, want <= ~DeltaR", m.TimeToRecovery)
	}
}

func TestEvaluateValidation(t *testing.T) {
	p := nodemodel.DefaultParams()
	rng := rand.New(rand.NewSource(5))
	if _, err := Evaluate(rng, p, nil, SimConfig{Episodes: 1, Horizon: 1}); err == nil {
		t.Error("nil strategy should fail")
	}
	if _, err := Evaluate(rng, p, NeverRecover{}, SimConfig{Episodes: 0, Horizon: 1}); err == nil {
		t.Error("zero episodes should fail")
	}
	if _, err := Evaluate(rng, p, NeverRecover{}, SimConfig{Episodes: 1, Horizon: 0}); err == nil {
		t.Error("zero horizon should fail")
	}
	bad := p
	bad.Eta = 0
	if _, err := Evaluate(rng, bad, NeverRecover{}, SimConfig{Episodes: 1, Horizon: 1}); err == nil {
		t.Error("bad params should fail")
	}
}

func TestSolveDPStationary(t *testing.T) {
	p := nodemodel.DefaultParams()
	sol, err := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Thresholds) != 1 {
		t.Fatalf("stationary solution has %d thresholds", len(sol.Thresholds))
	}
	al := sol.Thresholds[0]
	// The threshold must be interior: never-recover and always-recover are
	// both suboptimal under the Table 8 parameters. (Fig 13's alpha* = 0.76
	// is obtained with the emulation's fitted Ẑ, which is far more
	// informative than the Table 8 BetaBin model used here; with BetaBin
	// observations the verified optimum is ~0.28.)
	if al < 0.05 || al > 0.95 {
		t.Errorf("stationary threshold = %v, want interior value", al)
	}
	// Cross-check optimality against a fixed-threshold sweep: no swept
	// threshold may beat the DP cost by more than Monte-Carlo noise.
	cfg := SimConfig{Episodes: 150, Horizon: 200, DeltaR: InfiniteDeltaR}
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		rng := rand.New(rand.NewSource(21))
		s := &ThresholdStrategy{Thresholds: []float64{th}, DeltaR: InfiniteDeltaR}
		m, err := Evaluate(rng, p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.AvgCost < sol.AvgCost-0.05 {
			t.Errorf("threshold %v beats DP optimum: %v < %v", th, m.AvgCost, sol.AvgCost)
		}
	}
	// The optimal average cost is bounded by the trivial policies:
	// J(always recover) = 1 and J is at least the cost of the occasional
	// recovery, which happens at rate <= pA-ish.
	if sol.AvgCost <= 0 || sol.AvgCost >= 1 {
		t.Errorf("J* = %v, want in (0, 1)", sol.AvgCost)
	}
}

func TestSolveDPMatchesSimulation(t *testing.T) {
	// The DP average cost must agree with a simulation of its own strategy.
	p := nodemodel.DefaultParams()
	sol, err := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := &sol.ThresholdStrategy
	rng := rand.New(rand.NewSource(6))
	m, err := Evaluate(rng, p, s, SimConfig{Episodes: 300, Horizon: 300, DeltaR: InfiniteDeltaR})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AvgCost-sol.AvgCost) > 0.05 {
		t.Errorf("simulated cost %v vs DP %v", m.AvgCost, sol.AvgCost)
	}
}

func TestSolveDPWindowThresholdsMonotone(t *testing.T) {
	// Corollary 1 / Fig 15: thresholds increase toward the scheduled
	// recovery within a window.
	p := nodemodel.DefaultParams()
	sol, err := SolveDP(p, DPConfig{DeltaR: 20, GridSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Thresholds) != 19 {
		t.Fatalf("window solution has %d thresholds, want 19", len(sol.Thresholds))
	}
	for k := 1; k < len(sol.Thresholds); k++ {
		if sol.Thresholds[k] < sol.Thresholds[k-1]-0.02 {
			t.Errorf("threshold decreased at position %d: %v -> %v (Cor 1 violated)",
				k, sol.Thresholds[k-1], sol.Thresholds[k])
		}
	}
	// The last positions before the forced recovery should be nearly 1.
	if sol.Thresholds[len(sol.Thresholds)-1] < 0.5 {
		t.Errorf("final threshold = %v, want high", sol.Thresholds[len(sol.Thresholds)-1])
	}
}

func TestSolveDPDeltaR1(t *testing.T) {
	p := nodemodel.DefaultParams()
	sol, err := SolveDP(p, DPConfig{DeltaR: 1, GridSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sol.AvgCost != 1 {
		t.Errorf("J(deltaR=1) = %v, want 1 (recover every step)", sol.AvgCost)
	}
}

func TestSolveDPAvgCostMonotoneInDeltaR(t *testing.T) {
	// Looser BTR constraints cannot hurt the optimal cost: J*(5) >= J*(15)
	// >= J*(inf). (The paper's Table 2 orders differently within noise; the
	// exact optima must be monotone since the strategy spaces are nested.)
	p := nodemodel.DefaultParams()
	var prev = math.Inf(1)
	for _, deltaR := range []int{5, 15, 25} {
		sol, err := SolveDP(p, DPConfig{DeltaR: deltaR, GridSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		if sol.AvgCost > prev+1e-6 {
			t.Errorf("J*(%d) = %v exceeds J* of tighter constraint %v", deltaR, sol.AvgCost, prev)
		}
		prev = sol.AvgCost
	}
	inf, err := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if inf.AvgCost > prev+1e-6 {
		t.Errorf("J*(inf) = %v exceeds J*(25) = %v", inf.AvgCost, prev)
	}
}

func TestAlgorithm1FindsNearOptimalStrategy(t *testing.T) {
	p := nodemodel.DefaultParams()
	dp, err := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Algorithm1(context.Background(), p, Algorithm1Config{
		DeltaR:    InfiniteDeltaR,
		Optimizer: opt.CEM{Population: 20},
		Budget:    200,
		Episodes:  30,
		Horizon:   150,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-evaluate the learned strategy with fresh randomness.
	rng := rand.New(rand.NewSource(99))
	m, err := Evaluate(rng, p, res.Strategy, SimConfig{Episodes: 200, Horizon: 200, DeltaR: InfiniteDeltaR})
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgCost > dp.AvgCost*1.5+0.05 {
		t.Errorf("Alg 1 cost %v far from optimal %v", m.AvgCost, dp.AvgCost)
	}
}

func TestAlgorithm1Validation(t *testing.T) {
	p := nodemodel.DefaultParams()
	if _, err := Algorithm1(context.Background(), p, Algorithm1Config{}); err == nil {
		t.Error("missing optimizer should fail")
	}
	if _, err := Algorithm1(context.Background(), p, Algorithm1Config{Optimizer: opt.RandomSearch{}, Budget: 1, Episodes: 1, Horizon: 1}); err == nil {
		t.Error("budget 1 should fail")
	}
	if _, err := Algorithm1(context.Background(), p, Algorithm1Config{Optimizer: opt.RandomSearch{}, Budget: 10, Episodes: 0, Horizon: 1}); err == nil {
		t.Error("episodes 0 should fail")
	}
	// Tapes past MaxTapeDraws: an overflowing Episodes·(2+2·Horizon), and
	// a 64 GB one.
	for _, mh := range [][2]int{{1 << 31, 1 << 31}, {4_000_000, 1000}, {1, MaxTapeDraws / 2}} {
		cfg := Algorithm1Config{Optimizer: opt.RandomSearch{}, Budget: 10, Episodes: mh[0], Horizon: mh[1]}
		if _, err := Algorithm1(context.Background(), p, cfg); !errors.Is(err, ErrBadAlgorithm1Config) {
			t.Errorf("episodes %d, horizon %d: %v, want ErrBadAlgorithm1Config", mh[0], mh[1], err)
		}
	}
	if !TapeFits(1, (MaxTapeDraws-2)/2) || TapeFits(2, (MaxTapeDraws-2)/2) {
		t.Error("TapeFits misplaces the bound")
	}
	// An alert support the tape's 16-bit alerts cannot index.
	wide := p
	wide.ZHealthy = dist.MustBetaBinomial(maxTapeAlerts, 1, 1).Categorical()
	wide.ZCompromised = wide.ZHealthy
	cfg := Algorithm1Config{Optimizer: opt.RandomSearch{}, Budget: 10, Episodes: 1, Horizon: 1}
	if _, err := Algorithm1(context.Background(), wide, cfg); !errors.Is(err, ErrBadAlgorithm1Config) {
		t.Errorf("%d alert values: %v, want ErrBadAlgorithm1Config", wide.NumObs(), err)
	}
}

func TestPeriodicStrategyCalendar(t *testing.T) {
	s := PeriodicStrategy{Period: 5}
	recoveries := 0
	for pos := 1; pos <= 20; pos++ {
		if s.Action(0, pos) == nodemodel.Recover {
			recoveries++
		}
	}
	if recoveries != 4 {
		t.Errorf("periodic recoveries in 20 steps = %d, want 4", recoveries)
	}
	if (PeriodicStrategy{}).Action(1, 100) != nodemodel.Wait {
		t.Error("period 0 should never recover")
	}
}

// Property: the evaluator's cost decomposition is consistent:
// J = eta * compromisedFraction + recoveryFrequency (eq. 5).
func TestCostDecompositionProperty(t *testing.T) {
	p := nodemodel.DefaultParams()
	f := func(seed int64, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		th := float64(thRaw) / 255
		s := &ThresholdStrategy{Thresholds: []float64{th}, DeltaR: InfiniteDeltaR}
		m, err := Evaluate(rng, p, s, SimConfig{Episodes: 10, Horizon: 100, DeltaR: InfiniteDeltaR})
		if err != nil {
			return false
		}
		lhs := m.AvgCost
		rhs := p.Eta*m.CompromisedFraction + m.RecoveryFrequency
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: lowering the threshold never decreases recovery frequency
// (with common random numbers).
func TestThresholdMonotoneRecoveryFrequency(t *testing.T) {
	p := nodemodel.DefaultParams()
	cfg := SimConfig{Episodes: 30, Horizon: 150, DeltaR: InfiniteDeltaR}
	freqs := make([]float64, 0, 3)
	for _, th := range []float64{0.2, 0.6, 0.95} {
		rng := rand.New(rand.NewSource(11))
		s := &ThresholdStrategy{Thresholds: []float64{th}, DeltaR: InfiniteDeltaR}
		m, err := Evaluate(rng, p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		freqs = append(freqs, m.RecoveryFrequency)
	}
	if !(freqs[0] >= freqs[1] && freqs[1] >= freqs[2]) {
		t.Errorf("recovery frequency not monotone in threshold: %v", freqs)
	}
}

// TestSolveStationaryFixedPoint pins the warm-start contract: the root
// finder's stopping-value iteration starts each probe from the previous
// probe's fixed point, which must not change what it converges to. The
// returned stationary value has to satisfy the optimality equation
// W(b) = min(1 - rho, eta*b - rho + E_o W(b')) at every grid belief, and
// the cycle-start value E_o W(b_1(o)) has to be (approximately) zero — the
// defining property of the optimal average cost.
func TestSolveStationaryFixedPoint(t *testing.T) {
	p := nodemodel.DefaultParams()
	cfg := DPConfig{DeltaR: InfiniteDeltaR}
	solver := &dpSolver{p: p, cfg: cfg.withDefaults(), ar: NewArena()}
	solver.prepare()
	rho, w, err := solver.stationaryRoot(solver.stoppingValue)
	if err != nil {
		t.Fatal(err)
	}
	solver.expectWaitAll(w, solver.accBuf)
	recoverVal := 1 - rho
	for i, b := range solver.grid {
		v := math.Min(recoverVal, p.Eta*b-rho+solver.accBuf[i])
		if math.Abs(v-w[i]) > 1e-8 {
			t.Fatalf("Bellman residual %g at b = %v", v-w[i], b)
		}
	}
	if reset := solver.expectReset(w); math.Abs(reset) > 1e-6 {
		t.Errorf("cycle-start value = %g, want ~0 at the optimal rho", reset)
	}
	sol, err := SolveDP(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.AvgCost != rho {
		t.Errorf("SolveDP rho %v, root finder %v", sol.AvgCost, rho)
	}

	// Determinism: a second solve (its own warm-start sequence) is
	// bit-identical.
	sol2, err := SolveDP(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.AvgCost != sol.AvgCost || sol2.Thresholds[0] != sol.Thresholds[0] {
		t.Errorf("repeat solve differs: rho %v vs %v, threshold %v vs %v",
			sol2.AvgCost, sol.AvgCost, sol2.Thresholds[0], sol.Thresholds[0])
	}
}

// TestAlgorithm1WorkersBitIdentical is the parallel-training determinism
// contract: Algorithm 1 learns exactly the same strategy — thresholds,
// cost, evaluation count — for any Workers value, because every candidate
// replays the same read-only common-random-number tape (the stream seeded
// Seed+1) from its start and results fold in candidate order.
func TestAlgorithm1WorkersBitIdentical(t *testing.T) {
	p := nodemodel.DefaultParams()
	for _, po := range []opt.Optimizer{opt.CEM{Population: 20}, opt.DE{}, opt.SPSA{}} {
		po := po
		t.Run(po.Name(), func(t *testing.T) {
			run := func(workers int) *Algorithm1Result {
				res, err := Algorithm1(context.Background(), p, Algorithm1Config{
					DeltaR:    15,
					Optimizer: po,
					Budget:    60,
					Episodes:  5,
					Horizon:   40,
					Seed:      4,
					Workers:   workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run(1)
			for _, workers := range []int{2, 8} {
				res := run(workers)
				if res.Cost != base.Cost {
					t.Errorf("workers=%d: cost %v != sequential %v", workers, res.Cost, base.Cost)
				}
				if res.Search.Evaluations != base.Search.Evaluations {
					t.Errorf("workers=%d: evaluations %d != %d", workers,
						res.Search.Evaluations, base.Search.Evaluations)
				}
				if len(res.Strategy.Thresholds) != len(base.Strategy.Thresholds) {
					t.Fatalf("workers=%d: threshold dim %d != %d", workers,
						len(res.Strategy.Thresholds), len(base.Strategy.Thresholds))
				}
				for i := range res.Strategy.Thresholds {
					if res.Strategy.Thresholds[i] != base.Strategy.Thresholds[i] {
						t.Errorf("workers=%d: threshold[%d] = %v != %v", workers, i,
							res.Strategy.Thresholds[i], base.Strategy.Thresholds[i])
					}
				}
			}
		})
	}
}

// TestSolveDPStationaryLowCostRegime covers the inputs whose first bisection
// probes sit above the average cost of waiting forever (low attack rate, low
// waiting cost): there the stopping value has no fixed point, and the solver
// must read the diverging iterate as "rho too high" instead of giving up.
// The solution is checked the way TestSolveDPMatchesSimulation checks the
// default: the DP's average cost against a simulation of its own strategy.
func TestSolveDPStationaryLowCostRegime(t *testing.T) {
	for _, pa := range []float64{0.02, 0.05} {
		for _, eta := range []float64{1, 1.5, 2} {
			p := nodemodel.DefaultParams()
			p.PA, p.Eta = pa, eta
			sol, err := SolveDP(p, DPConfig{DeltaR: InfiniteDeltaR, GridSize: 300})
			if err != nil {
				t.Errorf("pA=%v eta=%v: %v", pa, eta, err)
				continue
			}
			if al := sol.Thresholds[0]; al <= 0 || al >= 1 {
				t.Errorf("pA=%v eta=%v: threshold %v is not interior", pa, eta, al)
			}
			rng := rand.New(rand.NewSource(6))
			m, err := Evaluate(rng, p, &sol.ThresholdStrategy,
				SimConfig{Episodes: 400, Horizon: 300, DeltaR: InfiniteDeltaR})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(m.AvgCost-sol.AvgCost) > 0.01 {
				t.Errorf("pA=%v eta=%v: simulated cost %v vs DP %v", pa, eta, m.AvgCost, sol.AvgCost)
			}
		}
	}
}
