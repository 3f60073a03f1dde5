package cmdp

import (
	"math"
	"math/rand"
	"testing"

	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// The Monte-Carlo budget HealthyProb's rollout predecessor ran at.
const (
	DefaultEstimateEpisodes = 100
	DefaultEstimateHorizon  = 200
)

// EstimateHealthyProb is the rollout estimator HealthyProb replaced, kept
// as its test oracle: q from Monte-Carlo episodes of Problem 1 under the
// recovery strategy, as (1 − compromised fraction of alive steps) ·
// (1 − crashes per episode ÷ horizon).
func EstimateHealthyProb(rng *rand.Rand, p nodemodel.Params, s recovery.Strategy, episodes, horizon, deltaR int) (float64, error) {
	m, err := recovery.Evaluate(rng, p, s, recovery.SimConfig{
		Episodes: episodes,
		Horizon:  horizon,
		DeltaR:   deltaR,
	})
	if err != nil {
		return 0, err
	}
	crashPerStep := m.CrashFraction / float64(horizon)
	q := (1 - m.CompromisedFraction) * (1 - crashPerStep)
	return math.Min(1, math.Max(0, q)), nil
}

// TestHealthyProbMatchesRolloutEstimate: where the two estimands coincide —
// finite ΔR, a horizon of whole BTR windows (the process renews at each),
// crashes rare enough that few episodes end early — the computed q agrees
// with a 2 000-episode rollout estimate.
func TestHealthyProbMatchesRolloutEstimate(t *testing.T) {
	p := nodemodel.DefaultParams()
	const deltaR = 15
	dp, err := recovery.SolveDP(p, recovery.DPConfig{DeltaR: deltaR, GridSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	table, err := recovery.NewOccupancyTable(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []recovery.Strategy{&dp.ThresholdStrategy, recovery.NeverRecover{}} {
		q, err := HealthyProb(table, s, deltaR)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateHealthyProb(rand.New(rand.NewSource(5)), p, s, 2000, 14*deltaR, deltaR)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q-est) > 0.005 {
			t.Errorf("%T: HealthyProb %v, rollout estimate %v", s, q, est)
		}
	}
}

// TestRolloutHazardUndercounts is the bias HealthyProb's horizon-free
// hazard removes: on a crash-heavy node (examples/scada's profile) most of
// the default budget's 200-step episodes end in a crash, so crashes per
// episode ÷ horizon saturates near 1/200 — about half the per-alive-step
// hazard under the DP's thresholds, on every seed.
func TestRolloutHazardUndercounts(t *testing.T) {
	p := nodemodel.DefaultParams()
	p.PC1, p.PC2 = 5e-3, 2e-2
	const deltaR = 15
	dp, err := recovery.SolveDP(p, recovery.DPConfig{DeltaR: deltaR, GridSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := &dp.ThresholdStrategy
	occ, err := recovery.Occupancy(p, s, deltaR)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		m, err := recovery.Evaluate(rand.New(rand.NewSource(seed)), p, s, recovery.SimConfig{
			Episodes: DefaultEstimateEpisodes, Horizon: DefaultEstimateHorizon, DeltaR: deltaR,
		})
		if err != nil {
			t.Fatal(err)
		}
		if perStep := m.CrashFraction / DefaultEstimateHorizon; perStep > 0.7*occ.CrashHazard {
			t.Errorf("seed %d: crashes per episode ÷ horizon %v, hazard %v: no undercount", seed, perStep, occ.CrashHazard)
		}
	}
}

// TestHealthyProbOrdering: feedback recovery keeps a node healthier than no
// recovery, and an exact q needs no seed — two calls agree bit for bit.
func TestHealthyProbOrdering(t *testing.T) {
	p := nodemodel.DefaultParams()
	s := &recovery.ThresholdStrategy{Thresholds: []float64{0.3}, DeltaR: recovery.InfiniteDeltaR}
	table, err := recovery.NewOccupancyTable(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := HealthyProb(table, s, recovery.InfiniteDeltaR)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := HealthyProb(table, s, recovery.InfiniteDeltaR); again != q {
		t.Errorf("HealthyProb not deterministic: %v then %v", q, again)
	}
	qNever, err := HealthyProb(table, recovery.NeverRecover{}, recovery.InfiniteDeltaR)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.5 || qNever >= q {
		t.Errorf("feedback q = %v, no-recovery q = %v: want a high q above the no-recovery one", q, qNever)
	}
}
