package recovery

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
)

// oracleEvaluate is Evaluate as it was before the episode loop moved onto
// nodemodel.Kernel and a uniform interface: every step through Params, a
// slice of recovery times per episode, and the totals formed afterwards.
// It is the oracle of TestEvaluateMatchesParamsOracle.
func oracleEvaluate(rng *rand.Rand, p nodemodel.Params, s Strategy, cfg SimConfig) Metrics {
	var (
		totalCost, sumTimes                      float64
		aliveSteps, recoveries, crashes, intrude int
		times                                    []float64
	)
	for e := 0; e < cfg.Episodes; e++ {
		state := nodemodel.Healthy
		if rng.Float64() < p.PA {
			state = nodemodel.Compromised
			intrude++
		}
		belief := p.Posterior(p.PA, p.SampleObservation(rng, state))
		compromisedAt := -1
		if state == nodemodel.Compromised {
			compromisedAt = 0
		}
		cost := 0.0
		var epTimes []float64
		crashed := false
		for t := 1; t <= cfg.Horizon; t++ {
			windowPos, forced := t, false
			if cfg.DeltaR != InfiniteDeltaR {
				windowPos = t % cfg.DeltaR
				forced = windowPos == 0
			}
			action := nodemodel.Recover
			if !forced {
				action = s.Action(belief, windowPos)
			}
			cost += p.Cost(state, action)
			aliveSteps++
			if action == nodemodel.Recover {
				recoveries++
				if compromisedAt >= 0 {
					epTimes = append(epTimes, float64(t-compromisedAt))
					compromisedAt = -1
				}
			}
			prev := state
			state = p.SampleTransition(rng, prev, action)
			if state == nodemodel.Crashed {
				crashed = true
				break
			}
			if state == nodemodel.Compromised && (prev == nodemodel.Healthy || action == nodemodel.Recover) {
				intrude++
				if compromisedAt < 0 {
					compromisedAt = t
				}
			}
			if state == nodemodel.Healthy && prev == nodemodel.Compromised &&
				action == nodemodel.Wait && compromisedAt >= 0 {
				compromisedAt = -1
			}
			belief = p.UpdateBelief(belief, action, p.SampleObservation(rng, state))
		}
		if compromisedAt >= 0 {
			epTimes = append(epTimes, NoRecoveryPenalty)
		}
		if crashed {
			crashes++
		}
		totalCost += cost
		times = append(times, epTimes...)
	}
	m := Metrics{
		CrashFraction: float64(crashes) / float64(cfg.Episodes),
		Intrusions:    intrude,
	}
	if aliveSteps > 0 {
		m.AvgCost = totalCost / float64(aliveSteps)
		m.RecoveryFrequency = float64(recoveries) / float64(aliveSteps)
		m.CompromisedFraction = math.Max(0, (totalCost-float64(recoveries))/p.Eta) / float64(aliveSteps)
	}
	if len(times) > 0 {
		for _, t := range times {
			sumTimes += t
		}
		m.TimeToRecovery = sumTimes / float64(len(times))
	}
	return m
}

// randomTapeModel draws a valid node model. A third of the models never
// crash (pC1 = pC2 = 0), so their evaluations consume the whole draw bound;
// a third crash often.
func randomTapeModel(rng *rand.Rand) nodemodel.Params {
	n := 1 + rng.Intn(12)
	p := nodemodel.Params{
		PA:           0.6 * rng.Float64(),
		PU:           0.1 * rng.Float64(),
		Eta:          1 + 9*rng.Float64(),
		ZHealthy:     dist.MustBetaBinomial(n, 0.2+3*rng.Float64(), 0.2+3*rng.Float64()).Categorical(),
		ZCompromised: dist.MustBetaBinomial(n, 0.2+3*rng.Float64(), 0.2+3*rng.Float64()).Categorical(),
	}
	switch rng.Intn(3) {
	case 1:
		p.PC1, p.PC2 = 1e-4*rng.Float64(), 1e-2*rng.Float64()
	case 2:
		p.PC1, p.PC2 = 0.02*rng.Float64(), 0.1*rng.Float64()
	}
	return p
}

// randomTapeCase draws a model, a config and a strategy: random thresholds
// of the config's dimension, or one of the two extreme strategies.
func randomTapeCase(rng *rand.Rand) (nodemodel.Params, Strategy, SimConfig) {
	p := randomTapeModel(rng)
	deltaRs := []int{InfiniteDeltaR, 1, 2, 5, 15}
	cfg := SimConfig{
		Episodes: 1 + rng.Intn(12),
		Horizon:  1 + rng.Intn(120),
		DeltaR:   deltaRs[rng.Intn(len(deltaRs))],
	}
	var s Strategy
	switch rng.Intn(6) {
	case 0:
		s = NeverRecover{}
	case 1:
		s = AlwaysRecover{}
	default:
		theta := make([]float64, ThresholdDim(cfg.DeltaR))
		for i := range theta {
			theta[i] = rng.Float64()
		}
		s = &ThresholdStrategy{Thresholds: theta, DeltaR: cfg.DeltaR}
	}
	return p, s, cfg
}

// TestEvaluateMatchesParamsOracle holds Evaluate to the Params-stepped
// episode loop on every Metrics field, and checks that both leave the rng
// at the same position.
func TestEvaluateMatchesParamsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		p, s, cfg := randomTapeCase(rng)
		seed := rng.Int63()
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, err := Evaluate(gotRng, p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleEvaluate(wantRng, p, s, cfg)
		if *got != want {
			t.Fatalf("trial %d (%+v, %+v): Evaluate\n got %+v\nwant %+v", trial, p, cfg, *got, want)
		}
		if g, w := gotRng.Float64(), wantRng.Float64(); g != w {
			t.Fatalf("trial %d: Evaluate left the rng elsewhere than the oracle (%v vs %v)", trial, g, w)
		}
	}
}

// TestTapeReplayMatchesEvaluate is the tape's contract: evaluating on a
// recorded tape is Evaluate on a fresh rng of the tape's seed, on every
// Metrics field, for any number of replays; the cursor stops where Evaluate
// leaves the rng; and a run without crashes consumes exactly the bound.
func TestTapeReplayMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	full := 0
	for trial := 0; trial < 400; trial++ {
		p, s, cfg := randomTapeCase(rng)
		seed := rng.Int63()
		tape := recordTape(seed, cfg.maxDraws())
		k := p.Kernel()
		fresh := rand.New(rand.NewSource(seed))
		want, err := Evaluate(fresh, p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for replay := 0; replay < 2; replay++ {
			c := &tapeCursor{tape: tape}
			if got := evaluate(c, p, &k, s, cfg); got != *want {
				t.Fatalf("trial %d replay %d: tape\n got %+v\nwant %+v", trial, replay, got, *want)
			}
			if replay > 0 {
				continue
			}
			// Evaluate drew exactly what the cursor consumed.
			if c.next < len(tape) {
				if u := fresh.Float64(); u != tape[c.next] {
					t.Fatalf("trial %d: Evaluate consumed other than %d draws", trial, c.next)
				}
			}
			if want.CrashFraction == 0 {
				full++
				if c.next != cfg.maxDraws() {
					t.Fatalf("trial %d: a run without crashes consumed %d draws, want %d",
						trial, c.next, cfg.maxDraws())
				}
			}
		}
	}
	if full < 100 {
		t.Fatalf("only %d crash-free runs", full)
	}
}

// TestTapeNoCrashConsumesBound pins the bound on the model with pC1 = pC2 =
// 0: Episodes * (2 + 2 * Horizon) draws, one past the tape would panic.
func TestTapeNoCrashConsumesBound(t *testing.T) {
	p := nodemodel.DefaultParams()
	p.PC1, p.PC2 = 0, 0
	cfg := SimConfig{Episodes: 50, Horizon: 200, DeltaR: 15}
	if cfg.maxDraws() != 50*402 {
		t.Fatalf("bound %d", cfg.maxDraws())
	}
	k := p.Kernel()
	c := &tapeCursor{tape: recordTape(3, cfg.maxDraws())}
	m := evaluate(c, p, &k, &ThresholdStrategy{Thresholds: make([]float64, 14), DeltaR: 15}, cfg)
	if c.next != cfg.maxDraws() || m.CrashFraction != 0 {
		t.Fatalf("consumed %d of %d draws, crash fraction %v", c.next, cfg.maxDraws(), m.CrashFraction)
	}
}

// TestAlgorithm1CostReplaysSeedStream ties Algorithm 1's objective to
// Evaluate: the reported cost of the learned strategy is Evaluate's on a
// fresh rng seeded Seed+1, the common-random-number stream every candidate
// replays.
func TestAlgorithm1CostReplaysSeedStream(t *testing.T) {
	p := nodemodel.DefaultParams()
	for _, deltaR := range []int{InfiniteDeltaR, 5} {
		cfg := Algorithm1Config{
			DeltaR:    deltaR,
			Optimizer: opt.CEM{Population: 10},
			Budget:    30,
			Episodes:  8,
			Horizon:   60,
			Seed:      9,
			Workers:   2,
		}
		res, err := Algorithm1(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Evaluate(rand.New(rand.NewSource(cfg.Seed+1)), p, res.Strategy,
			SimConfig{Episodes: cfg.Episodes, Horizon: cfg.Horizon, DeltaR: deltaR})
		if err != nil {
			t.Fatal(err)
		}
		if m.AvgCost != res.Cost {
			t.Errorf("deltaR %d: Algorithm 1 cost %v, Evaluate on seed+1 %v", deltaR, res.Cost, m.AvgCost)
		}
	}
}
