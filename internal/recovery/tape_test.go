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

// TestTapeReplayMatchesEvaluate is the decoded tape's contract: each
// position holds what the model's Kernel makes of the stream's value in
// every role it can play, and a candidate replayed on it, any number of
// times, costs what Evaluate measures on a fresh rng of the tape's seed.
func TestTapeReplayMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		p, _, cfg := randomTapeCase(rng)
		s := &ThresholdStrategy{Thresholds: batchThetas(rng, 1, ThresholdDim(cfg.DeltaR))[0], DeltaR: cfg.DeltaR}
		seed := rng.Int63()
		k := p.Kernel()
		sc := newLaneScorer(p, cfg, seed)
		stream := rand.New(rand.NewSource(seed))
		for i, d := range sc.tape {
			u := stream.Float64()
			if d.compromised != (u < p.PA) {
				t.Fatalf("trial %d position %d: initial state bit %v for u = %v, pA = %v", trial, i, d.compromised, u, p.PA)
			}
			for st := nodemodel.Healthy; st <= nodemodel.Compromised; st++ {
				for a := nodemodel.Wait; a <= nodemodel.Recover; a++ {
					if got, want := d.successor(st, a), k.SampleTransition(st, a, u); got != want {
						t.Fatalf("trial %d position %d: successor of %v under %v is %v, want %v", trial, i, st, a, got, want)
					}
				}
				if got, want := int(d.alert[st]), k.SampleObservation(st, u); got != want {
					t.Fatalf("trial %d position %d: alert from %v is %d, want %d", trial, i, st, got, want)
				}
			}
		}
		want, err := Evaluate(rand.New(rand.NewSource(seed)), p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for replay := 0; replay < 2; replay++ {
			var out [1]float64
			sc.score([][]float64{s.Thresholds}, out[:])
			if math.Float64bits(out[0]) != math.Float64bits(want.AvgCost) {
				t.Fatalf("trial %d replay %d: tape cost %v, Evaluate %v", trial, replay, out[0], want.AvgCost)
			}
		}
	}
}

// TestTapeNoCrashConsumesBound pins the bound on the model with pC1 = pC2 =
// 0: Evaluate draws Episodes * (2 + 2 * Horizon) uniforms, and a lane ends
// on the tape's last position.
func TestTapeNoCrashConsumesBound(t *testing.T) {
	p := nodemodel.DefaultParams()
	p.PC1, p.PC2 = 0, 0
	cfg := SimConfig{Episodes: 50, Horizon: 200, DeltaR: 15}
	if cfg.maxDraws() != 50*402 {
		t.Fatalf("bound %d", cfg.maxDraws())
	}
	theta := make([]float64, 14)
	k := p.Kernel()
	rng, ahead := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	m := evaluate(rng, p, &k, &ThresholdStrategy{Thresholds: theta, DeltaR: 15}, cfg)
	for range cfg.maxDraws() {
		ahead.Float64()
	}
	if m.CrashFraction != 0 || rng.Float64() != ahead.Float64() {
		t.Fatalf("Evaluate drew other than %d uniforms (crash fraction %v)", cfg.maxDraws(), m.CrashFraction)
	}
	sc := newLaneScorer(p, cfg, 3)
	var l lane
	sc.start(&l, 0, theta)
	for !sc.step(&l) {
	}
	if l.pos != len(sc.tape) || len(sc.tape) != cfg.maxDraws() {
		t.Fatalf("the lane stopped at position %d of %d", l.pos, len(sc.tape))
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

// batchThetas draws n candidates of dim thresholds each.
func batchThetas(rng *rand.Rand, n, dim int) [][]float64 {
	thetas := make([][]float64, n)
	for i := range thetas {
		thetas[i] = make([]float64, dim)
		for j := range thetas[i] {
			thetas[i][j] = rng.Float64()
		}
	}
	return thetas
}

// checkBatch scores thetas on the decoded stream seeded seed+1 and holds
// every value to Evaluate's AvgCost on a fresh rng of that seed, bit for
// bit.
func checkBatch(t *testing.T, p nodemodel.Params, cfg SimConfig, seed int64, thetas [][]float64) {
	t.Helper()
	out := make([]float64, len(thetas))
	newLaneScorer(p, cfg, seed+1).score(thetas, out)
	k := p.Kernel()
	for i, theta := range thetas {
		s := &ThresholdStrategy{Thresholds: theta, DeltaR: cfg.DeltaR}
		want := evaluate(rand.New(rand.NewSource(seed+1)), p, &k, s, cfg).AvgCost
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("%+v, %+v, seed %d: candidate %d of %d costs %v on the tape, %v by Evaluate",
				p, cfg, seed, i, len(thetas), out[i], want)
		}
	}
}

// TestAlgorithm1BatchMatchesEvaluate holds every value of a batch scored in
// lanes to the per-candidate replay, Evaluate on a fresh rng seeded Seed+1:
// random models (a third crash-free, a third crash-heavy), ΔR from 1 to 6
// or ∞, small and odd M and H, and 1 to 2·opt.Lanes+1 candidates.
func TestAlgorithm1BatchMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 600; trial++ {
		p := randomTapeModel(rng)
		cfg := SimConfig{Episodes: 1 + rng.Intn(9), Horizon: 1 + rng.Intn(41), DeltaR: rng.Intn(7)}
		thetas := batchThetas(rng, 1+rng.Intn(2*opt.Lanes+1), ThresholdDim(cfg.DeltaR))
		checkBatch(t, p, cfg, rng.Int63(), thetas)
	}
}

// FuzzAlgorithm1Batch is TestAlgorithm1BatchMatchesEvaluate on fuzzed
// cases: the fuzzer sets ΔR (0 is ∞), M, H and the batch size, and seed
// draws the model, the candidates and the stream.
func FuzzAlgorithm1Batch(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(25), uint8(100), uint8(9))
	f.Add(int64(2), uint8(0), uint8(7), uint8(37), uint8(5))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(2), uint8(3), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, deltaR, episodes, horizon, batch uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := randomTapeModel(rng)
		cfg := SimConfig{Episodes: 1 + int(episodes)%32, Horizon: 1 + int(horizon)%128, DeltaR: int(deltaR) % 24}
		thetas := batchThetas(rng, 1+int(batch)%(2*opt.Lanes+1), ThresholdDim(cfg.DeltaR))
		checkBatch(t, p, cfg, rng.Int63(), thetas)
	})
}

// TestAlgorithm1ObjectiveZeroAllocs is an allocation budget: scoring a
// batch allocates nothing, and Algorithm 1 at budget 480 allocates no more
// than at budget 120 but for its optimizer's per-generation work (CEM's
// sort, a goroutine a worker and batch) — nothing a candidate.
func TestAlgorithm1ObjectiveZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector allocates")
	}
	p := nodemodel.DefaultParams()
	cfg := SimConfig{Episodes: 25, Horizon: 100, DeltaR: 15}
	sc := newLaneScorer(p, cfg, 1)
	thetas := batchThetas(rand.New(rand.NewSource(2)), 2*opt.Lanes+1, ThresholdDim(cfg.DeltaR))
	out := make([]float64, len(thetas))
	if allocs := testing.AllocsPerRun(20, func() { sc.score(thetas, out) }); allocs != 0 {
		t.Errorf("scoring a batch allocates %v times, want 0", allocs)
	}
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := Algorithm1(context.Background(), p, Algorithm1Config{
				DeltaR: 15, Optimizer: opt.CEM{}, Budget: budget, Episodes: 25, Horizon: 100, Seed: 3, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(120), allocs(480)
	// Budget 480 runs three more CEM generations of 100, each allowed ten
	// allocations (its sort, its workers' goroutines, the trace's growth);
	// a single allocation a candidate would add 360.
	if extra := large - small; extra > 3*10 {
		t.Errorf("Algorithm 1 allocates %v times at budget 120 and %v at 480: %v more for 360 more evaluations",
			small, large, extra)
	}
}
