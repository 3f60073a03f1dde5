// Package ppo implements Proximal Policy Optimization (the paper's [73]
// baseline in Table 2) for Problem 1: a stochastic recovery policy over the
// belief state trained with the clipped surrogate objective and GAE(lambda)
// advantages. What runs by default: 2 hidden layers of 64 ReLU units, clip
// 0.2, GAE lambda 0.95, learning rate 3e-4 and no entropy bonus. Table 8
// lists 4 layers, learning rate 1e-5 and entropy coefficient 1e-4; Config
// selects any of them.
package ppo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tolerance/internal/dist"
	"tolerance/internal/nn"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
)

// ErrBadConfig is returned for invalid training configurations.
var ErrBadConfig = errors.New("ppo: bad config")

// Config holds PPO training hyperparameters.
type Config struct {
	// DeltaR is the BTR bound of the environment.
	DeltaR int
	// Iterations is the number of rollout/update cycles.
	Iterations int
	// StepsPerIteration is the rollout length per cycle.
	StepsPerIteration int
	// Horizon of each episode.
	Horizon int
	// Epochs per update (default 4).
	Epochs int
	// ClipEpsilon is the PPO clip range (Table 8: 0.2).
	ClipEpsilon float64
	// Gamma is the discount used as an average-cost proxy (default 0.99).
	Gamma float64
	// GAELambda is the advantage-estimation decay (Table 8: 0.95).
	GAELambda float64
	// EntropyCoef weighs the entropy bonus. Zero, the default, leaves the
	// bonus off; a negative value selects Table 8's 1e-4.
	EntropyCoef float64
	// LearningRate for both networks (default 3e-4; Table 8 lists 1e-5,
	// which needs far more iterations than the test budget).
	LearningRate float64
	// Hidden is the hidden width (default 64, as in Table 8) and Layers the
	// number of hidden layers (default 2; Table 8 lists 4).
	Hidden, Layers int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds how many rollout episodes of one iteration are played
	// concurrently (0 defaults to GOMAXPROCS, 1 is fully sequential), and
	// above 1 the policy and value networks' updates also run at the same
	// time, on two goroutines. Each episode draws from its own rng stream
	// derived from (Seed, iteration, episode index) and episodes are folded
	// into the batch in episode order, and the two updates share only the
	// batch they read, so training is bit-identical for any workers value.
	Workers int
	// Telemetry, when set, receives one observation per rollout/update
	// cycle (iteration count + the evaluation cost). It is a pure observer
	// attached outside the rng path: the trained policy is bit-identical
	// with or without it.
	Telemetry *telemetry.Training
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 30
	}
	if c.StepsPerIteration <= 0 {
		c.StepsPerIteration = 1024
	}
	if c.Horizon <= 0 {
		c.Horizon = 200
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.ClipEpsilon <= 0 {
		c.ClipEpsilon = 0.2
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.99
	}
	if c.GAELambda <= 0 {
		c.GAELambda = 0.95
	}
	if c.EntropyCoef < 0 {
		c.EntropyCoef = 1e-4
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 3e-4
	}
	if c.Hidden <= 0 {
		c.Hidden = 64
	}
	if c.Layers <= 0 {
		c.Layers = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stream tags for splitStream: rollout episodes and policy evaluations
// draw from disjoint derived streams, so neither can shift the other.
const (
	episodeStreamTag = 0x9e70
	evalStreamTag    = 0xe7a1
)

// splitStream derives a decorrelated rng seed from the training seed, a
// stream tag and a sequence index with the shared SplitMix64 finalizer
// (the same mix the fleet engine uses for per-scenario seeds). Episode
// streams depend only on (seed, iteration, episode index) — never on
// scheduling — which is what makes parallel rollout collection
// deterministic.
func splitStream(seed int64, tag, k uint64) int64 {
	return int64(dist.SplitMix64(uint64(seed)*dist.GoldenGamma + tag*0xbf58476d1ce4e5b9 + k + 1))
}

// episodeRng returns the dedicated rng stream of one rollout episode.
func episodeRng(seed int64, iter, episode int) *rand.Rand {
	return rand.New(rand.NewSource(splitStream(seed, episodeStreamTag,
		uint64(iter)<<32|uint64(uint32(episode)))))
}

// evalRng returns the dedicated rng stream of one policy evaluation.
func evalRng(seed int64, iter int) *rand.Rand {
	return rand.New(rand.NewSource(splitStream(seed, evalStreamTag, uint64(iter))))
}

// Policy is a trained PPO policy; it implements recovery.Strategy with a
// deterministic (mode) action rule.
type Policy struct {
	net    *nn.MLP
	deltaR int
	// caches holds *nn.Cache forward-pass buffers for Action, which fleet
	// workers call concurrently once per node per step.
	caches sync.Pool
}

var _ recovery.Strategy = (*Policy)(nil)

// features maps (belief, window position) to the network input.
func (p *Policy) features(belief float64, windowPos int) [2]float64 {
	frac := 0.0
	if p.deltaR != recovery.InfiniteDeltaR {
		frac = float64(windowPos%p.deltaR) / float64(p.deltaR)
	}
	return [2]float64{belief, frac}
}

// Probabilities returns the action distribution (P[Wait], P[Recover]).
//
//tolerance:testonly seam: TestGoldenParentLearned pins PPO's action distribution through it
func (p *Policy) Probabilities(belief float64, windowPos int) []float64 {
	x := p.features(belief, windowPos)
	return nn.Softmax(p.net.Forward(x[:]))
}

// Action implements recovery.Strategy: recover when it is the mode action,
// P[Recover] = Probabilities(belief, windowPos)[1] >= 0.5. A warm policy
// decides without allocating.
func (p *Policy) Action(belief float64, windowPos int) nodemodel.Action {
	c, _ := p.caches.Get().(*nn.Cache)
	if c == nil {
		c = new(nn.Cache)
	}
	x := p.features(belief, windowPos)
	p.net.ForwardInto(c, x[:])
	logits := c.Output()
	probs := nn.Softmax2(logits[0], logits[1])
	p.caches.Put(c)
	if probs[1] >= 0.5 {
		return nodemodel.Recover
	}
	return nodemodel.Wait
}

// Result reports the trained policy and the learning trace.
type Result struct {
	// Policy is the trained strategy.
	Policy *Policy
	// Cost is the final Monte-Carlo estimate of J_i under the policy.
	Cost float64
	// Trace records the evaluation cost after each iteration, in the same
	// format as the parametric optimizers for Fig 7.
	Trace []opt.TracePoint
	// Elapsed is the wall-clock training time.
	Elapsed time.Duration
}

// Train runs PPO on the node-recovery environment and returns the policy.
// Cancelling ctx aborts training between rollout/update cycles and returns
// the context's error.
//
// Randomness is stream-split: the base seed initializes the networks, every
// rollout episode draws from its own stream derived from (seed, iteration,
// episode index), and every policy evaluation from a per-iteration
// evaluation stream. Config.Workers therefore parallelizes rollout
// collection, and the policy and value updates, without changing a single
// output bit.
func Train(ctx context.Context, params nodemodel.Params, cfg Config) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.DeltaR < 0 {
		return nil, fmt.Errorf("%w: deltaR = %d", ErrBadConfig, cfg.DeltaR)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	sizes := []int{2}
	for l := 0; l < cfg.Layers; l++ {
		sizes = append(sizes, cfg.Hidden)
	}
	policySizes := append(append([]int(nil), sizes...), 2)
	valueSizes := append(append([]int(nil), sizes...), 1)
	policyNet, err := nn.NewMLP(rng, nn.ReLU, policySizes...)
	if err != nil {
		return nil, err
	}
	valueNet, err := nn.NewMLP(rng, nn.ReLU, valueSizes...)
	if err != nil {
		return nil, err
	}
	policy := &Policy{net: policyNet, deltaR: cfg.DeltaR}
	kernel := params.Kernel()
	policyOpt := &nn.Adam{LR: cfg.LearningRate}
	valueOpt := &nn.Adam{LR: cfg.LearningRate}

	start := time.Now()
	res := &Result{Policy: policy}
	best := math.Inf(1)
	evals := 0
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := collectRollout(&kernel, params, policy, cfg, iter)
		if err := update(policyNet, valueNet, policyOpt, valueOpt, batch, cfg); err != nil {
			return nil, err
		}
		evals += len(batch.obs)
		cost := evaluatePolicy(evalRng(cfg.Seed, iter), params, policy, cfg)
		cfg.Telemetry.ObserveIteration(cost)
		if cost < best {
			best = cost
			res.Trace = append(res.Trace, opt.TracePoint{
				Evaluations: evals,
				Elapsed:     time.Since(start),
				Best:        cost,
			})
		}
	}
	res.Cost = evaluatePolicy(evalRng(cfg.Seed, cfg.Iterations), params, policy, cfg)
	res.Elapsed = time.Since(start)
	return res, nil
}

// rollout holds one batch of on-policy experience.
type rollout struct {
	obs        [][2]float64
	actions    []int
	logProbs   []float64
	rewards    []float64
	values     []float64
	terminal   []bool
	advantages []float64
	returns    []float64
}

// absorb appends another rollout's decision steps, preserving episode
// boundaries (the terminal flags).
func (b *rollout) absorb(ep *rollout) {
	b.obs = append(b.obs, ep.obs...)
	b.actions = append(b.actions, ep.actions...)
	b.logProbs = append(b.logProbs, ep.logProbs...)
	b.rewards = append(b.rewards, ep.rewards...)
	b.values = append(b.values, ep.values...)
	b.terminal = append(b.terminal, ep.terminal...)
}

// collectRollout gathers at least StepsPerIteration decision steps from
// fresh episodes of the node environment (same dynamics as
// recovery.Evaluate). Episodes are independent — each plays on its own rng
// stream — and are folded into the batch strictly in episode-index order
// until the step quota is met, so the batch is the same whether episodes
// were played sequentially or speculatively on cfg.Workers goroutines
// (surplus speculative episodes are discarded).
func collectRollout(k *nodemodel.Kernel, params nodemodel.Params, policy *Policy, cfg Config, iter int) *rollout {
	b := &rollout{}
	next := 0
	if cfg.Workers <= 1 {
		for len(b.obs) < cfg.StepsPerIteration {
			runPPOEpisode(episodeRng(cfg.Seed, iter, next), k, params, policy, cfg, b)
			next++
		}
		return b
	}
	waveBuf := make([]*rollout, cfg.Workers)
	for len(b.obs) < cfg.StepsPerIteration {
		// Every episode contributes at least one decision step, so at most
		// `need` more episodes can be used — don't speculate beyond that.
		// The wave size depends only on the (deterministic) batch length,
		// and the folded episodes are always the index prefix that meets
		// the quota, so the batch stays bit-identical for any Workers.
		wave := waveBuf
		if need := cfg.StepsPerIteration - len(b.obs); need < len(wave) {
			wave = wave[:need]
		}
		var wg sync.WaitGroup
		for w := range wave {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ep := &rollout{}
				runPPOEpisode(episodeRng(cfg.Seed, iter, next+w), k, params, policy, cfg, ep)
				wave[w] = ep
			}(w)
		}
		wg.Wait()
		next += len(wave)
		for _, ep := range wave {
			if len(b.obs) >= cfg.StepsPerIteration {
				break
			}
			b.absorb(ep)
		}
	}
	return b
}

// runPPOEpisode plays one episode, appending decision steps to the batch.
// Rewards are negative costs (eq. 5).
func runPPOEpisode(rng *rand.Rand, k *nodemodel.Kernel, params nodemodel.Params, policy *Policy, cfg Config, b *rollout) {
	state := nodemodel.Healthy
	if rng.Float64() < params.PA {
		state = nodemodel.Compromised
	}
	belief := k.Posterior(params.PA, k.SampleObservation(state, rng.Float64()))

	var c nn.Cache
	for t := 1; t <= cfg.Horizon; t++ {
		windowPos := t
		forced := false
		if cfg.DeltaR != recovery.InfiniteDeltaR {
			windowPos = t % cfg.DeltaR
			forced = windowPos == 0
		}
		var action nodemodel.Action
		if forced {
			action = nodemodel.Recover
		} else {
			features := policy.features(belief, windowPos)
			policy.net.ForwardInto(&c, features[:])
			logits := c.Output()
			probs := nn.Softmax2(logits[0], logits[1])
			a := 0
			if rng.Float64() < probs[1] {
				a = 1
			}
			action = nodemodel.Action(a)
			b.obs = append(b.obs, features)
			b.actions = append(b.actions, a)
			b.logProbs = append(b.logProbs, math.Log(probs[a]+1e-12))
			b.values = append(b.values, 0) // refreshed by computeGAE
			b.rewards = append(b.rewards, -k.Cost(state, action))
			b.terminal = append(b.terminal, false)
		}

		state = k.SampleTransition(state, action, rng.Float64())
		if state == nodemodel.Crashed {
			if n := len(b.terminal); n > 0 {
				b.terminal[n-1] = true
			}
			return
		}
		zc, zh := k.Likelihoods(k.SampleObservation(state, rng.Float64()))
		belief = k.Update(belief, action, zc, zh)
	}
	if n := len(b.terminal); n > 0 {
		b.terminal[n-1] = true
	}
}

// computeGAE fills advantages and returns using the critic, whose forward
// passes run in vc.
func computeGAE(valueNet *nn.MLP, vc *nn.Cache, b *rollout, cfg Config) {
	n := len(b.obs)
	for i := 0; i < n; i++ {
		valueNet.ForwardInto(vc, b.obs[i][:])
		b.values[i] = vc.Output()[0]
	}
	b.advantages = make([]float64, n)
	b.returns = make([]float64, n)
	gae := 0.0
	for i := n - 1; i >= 0; i-- {
		var nextValue float64
		if !b.terminal[i] && i+1 < n {
			nextValue = b.values[i+1]
		}
		delta := b.rewards[i] + cfg.Gamma*nextValue - b.values[i]
		if b.terminal[i] {
			gae = delta
		} else {
			gae = delta + cfg.Gamma*cfg.GAELambda*gae
		}
		b.advantages[i] = gae
		b.returns[i] = gae + b.values[i]
	}
	// Normalize advantages.
	mean, std := 0.0, 0.0
	for _, a := range b.advantages {
		mean += a
	}
	mean /= float64(n)
	for _, a := range b.advantages {
		d := a - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(n))
	if std < 1e-8 {
		std = 1
	}
	for i := range b.advantages {
		b.advantages[i] = (b.advantages[i] - mean) / std
	}
}

// update performs the clipped-surrogate PPO update: computeGAE, then the
// policy network's epochs and the value network's epochs. The two share
// only the batch, which they read — the policy loss its advantages, the
// value loss its returns — and each has its own network, cache, grads and
// Adam, so with cfg.Workers > 1 they run on two goroutines, each still
// summing its samples in batch order. Every sample's forward and backward
// pass runs in its network's one cache, so the loops allocate nothing per
// sample.
func update(policyNet, valueNet *nn.MLP, policyOpt, valueOpt *nn.Adam, b *rollout, cfg Config) error {
	var vc nn.Cache
	computeGAE(valueNet, &vc, b, cfg)
	if cfg.Workers <= 1 {
		return errors.Join(policyEpochs(policyNet, policyOpt, b, cfg), valueEpochs(valueNet, valueOpt, &vc, b, cfg))
	}
	var valueErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		valueErr = valueEpochs(valueNet, valueOpt, &vc, b, cfg)
	}()
	policyErr := policyEpochs(policyNet, policyOpt, b, cfg)
	<-done
	return errors.Join(policyErr, valueErr)
}

// policyEpochs runs cfg.Epochs steps of the clipped surrogate with entropy
// bonus on the policy network, each over the whole batch.
func policyEpochs(policyNet *nn.MLP, policyOpt *nn.Adam, b *rollout, cfg Config) error {
	var pc nn.Cache
	n := len(b.obs)
	pGrads := policyNet.NewGrads()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		pGrads.Zero()
		for i := 0; i < n; i++ {
			policyNet.ForwardInto(&pc, b.obs[i][:])
			logits := pc.Output()
			probs := nn.Softmax2(logits[0], logits[1])
			a := b.actions[i]
			logProb := math.Log(probs[a] + 1e-12)
			ratio := math.Exp(logProb - b.logProbs[i])
			adv := b.advantages[i]
			clipped := ratio
			if clipped > 1+cfg.ClipEpsilon {
				clipped = 1 + cfg.ClipEpsilon
			} else if clipped < 1-cfg.ClipEpsilon {
				clipped = 1 - cfg.ClipEpsilon
			}
			// Loss = -min(ratio*adv, clipped*adv); gradient flows through
			// ratio only when it is the active (unclipped) branch.
			useRatio := ratio*adv <= clipped*adv
			var dLogits [2]float64
			if useRatio {
				// d(-ratio*adv)/dlogits = -adv*ratio * dlogpi/dlogits.
				for k := 0; k < 2; k++ {
					ind := 0.0
					if k == a {
						ind = 1
					}
					dLogits[k] = -adv * ratio * (ind - probs[k])
				}
			}
			// Entropy bonus: maximize H => subtract coef * dH/dlogits.
			if cfg.EntropyCoef > 0 {
				for k := 0; k < 2; k++ {
					// dH/dlogit_k = -p_k*(log p_k + H).
					h := 0.0
					for j := 0; j < 2; j++ {
						h -= probs[j] * math.Log(probs[j]+1e-12)
					}
					dLogits[k] -= cfg.EntropyCoef * (-probs[k] * (math.Log(probs[k]+1e-12) + h))
				}
			}
			policyNet.Backward(&pc, dLogits[:], pGrads)
		}
		if err := policyOpt.Step(policyNet, pGrads, float64(n)); err != nil {
			return err
		}
	}
	return nil
}

// valueEpochs runs cfg.Epochs steps of the critic's squared-error
// regression toward the returns, each over the whole batch, in vc.
func valueEpochs(valueNet *nn.MLP, valueOpt *nn.Adam, vc *nn.Cache, b *rollout, cfg Config) error {
	n := len(b.obs)
	vGrads := valueNet.NewGrads()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		vGrads.Zero()
		for i := 0; i < n; i++ {
			valueNet.ForwardInto(vc, b.obs[i][:])
			dv := [1]float64{vc.Output()[0] - b.returns[i]}
			valueNet.Backward(vc, dv[:], vGrads)
		}
		if err := valueOpt.Step(valueNet, vGrads, float64(n)); err != nil {
			return err
		}
	}
	return nil
}

// evaluatePolicy estimates J_i of the current deterministic policy.
func evaluatePolicy(rng *rand.Rand, params nodemodel.Params, policy *Policy, cfg Config) float64 {
	m, err := recovery.Evaluate(rng, params, policy, recovery.SimConfig{
		Episodes: 20,
		Horizon:  cfg.Horizon,
		DeltaR:   cfg.DeltaR,
	})
	if err != nil {
		return math.Inf(1)
	}
	return m.AvgCost
}
