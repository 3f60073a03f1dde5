package ppo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tolerance/internal/nn"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

func TestTrainValidation(t *testing.T) {
	p := nodemodel.DefaultParams()
	if _, err := Train(context.Background(), p, Config{DeltaR: -1}); err == nil {
		t.Error("negative deltaR should fail")
	}
	bad := p
	bad.Eta = 0
	if _, err := Train(context.Background(), bad, Config{}); err == nil {
		t.Error("bad params should fail")
	}
}

func TestTrainImprovesOverUntrained(t *testing.T) {
	p := nodemodel.DefaultParams()
	res, err := Train(context.Background(), p, Config{
		DeltaR:            recovery.InfiniteDeltaR,
		Iterations:        15,
		StepsPerIteration: 512,
		Horizon:           120,
		Hidden:            16,
		Layers:            2,
		LearningRate:      3e-3,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy == nil {
		t.Fatal("nil policy")
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	// The trained policy should clearly beat never-recover (cost -> eta)
	// and not be much worse than always-recover (cost 1).
	rng := rand.New(rand.NewSource(50))
	m, err := recovery.Evaluate(rng, p, res.Policy, recovery.SimConfig{
		Episodes: 100, Horizon: 200, DeltaR: recovery.InfiniteDeltaR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgCost > 1.2 {
		t.Errorf("PPO policy cost = %v, want < 1.2 (eta = %v)", m.AvgCost, p.Eta)
	}
}

func TestPolicyActionConsistentWithProbabilities(t *testing.T) {
	p := nodemodel.DefaultParams()
	res, err := Train(context.Background(), p, Config{
		DeltaR:            recovery.InfiniteDeltaR,
		Iterations:        2,
		StepsPerIteration: 128,
		Horizon:           60,
		Hidden:            8,
		Layers:            1,
		Seed:              2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0, 0.25, 0.5, 0.75, 1} {
		probs := res.Policy.Probabilities(b, 1)
		action := res.Policy.Action(b, 1)
		wantRecover := probs[1] >= 0.5
		gotRecover := action == nodemodel.Recover
		if wantRecover != gotRecover {
			t.Errorf("belief %v: action %v inconsistent with probs %v", b, action, probs)
		}
	}
}

func TestPolicyFeaturesWindowFraction(t *testing.T) {
	p := nodemodel.DefaultParams()
	res, err := Train(context.Background(), p, Config{
		DeltaR:            10,
		Iterations:        2,
		StepsPerIteration: 128,
		Horizon:           60,
		Hidden:            8,
		Layers:            1,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Policy.features(0.5, 7)
	if f[1] != 0.7 {
		t.Errorf("window fraction = %v, want 0.7", f[1])
	}
	// Infinite deltaR uses zero fraction.
	res.Policy.deltaR = recovery.InfiniteDeltaR
	if res.Policy.features(0.5, 7)[1] != 0 {
		t.Error("infinite deltaR should use zero window fraction")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ClipEpsilon != 0.2 || c.GAELambda != 0.95 || c.Gamma != 0.99 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.Hidden != 64 || c.Epochs != 4 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

// TestTrainWorkersBitIdentical is the parallel determinism contract: PPO
// trains exactly the same policy for any Workers value, because episodes
// play on per-episode rng streams derived from (seed, iteration, episode
// index) and fold into the batch in episode order, and because the policy
// and value networks, updated one after the other at Workers 1 and on two
// goroutines above it, share nothing they write. Hidden width 8 is a whole
// number of the forward kernel's row blocks; 13 leaves a remainder, so both
// kernel paths are covered.
func TestTrainWorkersBitIdentical(t *testing.T) {
	params := nodemodel.DefaultParams()
	for _, hidden := range []int{8, 13} {
		run := func(workers int) *Result {
			res, err := Train(context.Background(), params, Config{
				DeltaR:            15,
				Iterations:        3,
				StepsPerIteration: 128,
				Horizon:           60,
				Hidden:            hidden,
				Layers:            2,
				Seed:              6,
				Workers:           workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base := run(1)
		probePoints := []struct {
			belief float64
			pos    int
		}{{0.05, 1}, {0.3, 5}, {0.7, 10}, {0.95, 14}}
		for _, workers := range []int{2, 8} {
			res := run(workers)
			if res.Cost != base.Cost {
				t.Errorf("hidden %d, workers=%d: cost %v != sequential %v", hidden, workers, res.Cost, base.Cost)
			}
			for _, pt := range probePoints {
				got := res.Policy.Probabilities(pt.belief, pt.pos)
				want := base.Policy.Probabilities(pt.belief, pt.pos)
				if got[0] != want[0] || got[1] != want[1] {
					t.Errorf("hidden %d, workers=%d: probabilities(%v, %d) = %v != %v",
						hidden, workers, pt.belief, pt.pos, got, want)
				}
			}
		}
	}
}

// TestPolicyActionWarmZeroAllocs guards the fleet's worker-resident step,
// which calls Action once per node per step: a warm policy decides without
// allocating, and every decision on a belief x window-position grid is
// still Probabilities(...)[1] >= 0.5.
func TestPolicyActionWarmZeroAllocs(t *testing.T) {
	res, err := Train(context.Background(), nodemodel.DefaultParams(), Config{
		DeltaR:            15,
		Iterations:        2,
		StepsPerIteration: 128,
		Horizon:           60,
		Seed:              2,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := res.Policy
	recovers := 0
	for i := 0; i <= 100; i++ {
		b := float64(i) / 100
		for pos := 0; pos < 15; pos++ {
			want := policy.Probabilities(b, pos)[1] >= 0.5
			got := policy.Action(b, pos) == nodemodel.Recover
			if got != want {
				t.Fatalf("belief %v, position %d: Action recovers = %v, Probabilities says %v", b, pos, got, want)
			}
			if got {
				recovers++
			}
		}
	}
	if recovers == 0 || recovers == 101*15 {
		t.Fatalf("%d of %d grid decisions recover: the grid checks only one kind", recovers, 101*15)
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(100, func() {
		policy.Action(0.4, 3)
	})
	if allocs != 0 {
		t.Fatalf("warm Action allocates %v times per call", allocs)
	}
}

// rolloutBits is every field of a batch, floats as bit patterns.
func rolloutBits(b *rollout) string {
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	obs := make([]uint64, 0, 2*len(b.obs))
	for _, o := range b.obs {
		obs = append(obs, math.Float64bits(o[0]), math.Float64bits(o[1]))
	}
	return fmt.Sprint(obs, b.actions, bits(b.logProbs), bits(b.rewards), bits(b.values), b.terminal,
		bits(b.advantages), bits(b.returns))
}

// TestPooledRolloutMatchesFresh: a batch collected by a trainer whose
// batch and episode slots last held another iteration's episodes — more or
// fewer of them, longer or shorter — is, with its advantages and returns,
// the batch a fresh trainer collects for that iteration, bit for bit, at
// one worker and with a crew. Crashes end the crash-prone model's episodes
// early, so the slots' previous contents outlast the episodes that reuse
// them.
func TestPooledRolloutMatchesFresh(t *testing.T) {
	params := nodemodel.DefaultParams()
	params.PC2 = 0.03
	for _, workers := range []int{1, 3} {
		cfg := Config{DeltaR: 15, StepsPerIteration: 150, Horizon: 70, Hidden: 8, Seed: 12, Workers: workers}.withDefaults()
		rng := rand.New(rand.NewSource(cfg.Seed))
		policyNet, err := nn.NewMLP(rng, nn.ReLU, 2, 8, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		valueNet, err := nn.NewMLP(rng, nn.ReLU, 2, 8, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		policy := &Policy{net: policyNet, deltaR: cfg.DeltaR}
		pooled := newTrainer(params, cfg, policy, valueNet)
		lengths := map[int]bool{}
		for _, iter := range []int{0, 5, 1, 7, 2, 2, 9} {
			pooled.collectRollout(iter)
			pooled.computeGAE()
			fresh := newTrainer(params, cfg, policy, valueNet)
			fresh.collectRollout(iter)
			fresh.computeGAE()
			fresh.stop()
			if got, want := rolloutBits(&pooled.batch), rolloutBits(&fresh.batch); got != want {
				t.Fatalf("workers %d, iteration %d: the pooled trainer's batch (%d steps) differs from a fresh one's (%d steps)",
					workers, iter, len(pooled.batch.obs), len(fresh.batch.obs))
			}
			lengths[len(pooled.batch.obs)] = true
		}
		pooled.stop()
		if len(lengths) < 3 {
			t.Fatalf("workers %d: every batch had one of %d lengths; the test needs batches that shrink and grow", workers, len(lengths))
		}
	}
}

// TestTrainAllocationsPerIteration: a trainer sizes its batch, episode
// slots, caches, gradients and crew when Train starts, so an iteration
// allocates only what its evaluation returns: four iterations allocate at
// most 8 objects more than two (hundreds per iteration when every episode
// grew its own rollout and cache).
func TestTrainAllocationsPerIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	params := nodemodel.DefaultParams()
	for _, workers := range []int{1, 2} {
		allocs := func(iterations int) float64 {
			cfg := Config{DeltaR: 15, Iterations: iterations, StepsPerIteration: 256, Horizon: 60, Hidden: 8,
				Seed: 3, Workers: workers}
			return testing.AllocsPerRun(3, func() {
				if _, err := Train(context.Background(), params, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		a2, a4 := allocs(2), allocs(4)
		if a4 > a2+8 {
			t.Errorf("workers %d: Train allocates %v objects at 2 iterations and %v at 4, want at most 8 more", workers, a2, a4)
		} else {
			t.Logf("workers %d: Train allocates %v objects at 2 iterations and %v at 4", workers, a2, a4)
		}
	}
}
