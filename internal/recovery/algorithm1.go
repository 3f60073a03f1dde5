package recovery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/telemetry"
)

// ErrBadAlgorithm1Config is returned for invalid Algorithm 1 configurations.
var ErrBadAlgorithm1Config = errors.New("recovery: bad Algorithm 1 config")

// Algorithm1Config parameterizes Algorithm 1 of the paper: parametric
// optimization of threshold recovery strategies.
type Algorithm1Config struct {
	// DeltaR is the BTR bound (InfiniteDeltaR for no constraint). Following
	// line 4 of Algorithm 1, the threshold dimension is DeltaR-1 (or 1).
	DeltaR int
	// Optimizer is the parametric optimizer PO (SPSA, CEM, DE, BO, ...).
	Optimizer opt.Optimizer
	// Budget is the number of objective evaluations given to the optimizer.
	Budget int
	// Episodes per objective evaluation (Table 8: M = 50).
	Episodes int
	// Horizon of each simulated episode.
	Horizon int
	// Seed drives both the optimizer and the simulation noise.
	Seed int64
	// Workers bounds how many of a generation's candidate strategies
	// evaluate concurrently (0 defaults to GOMAXPROCS, 1 is fully
	// sequential). Every candidate's Monte-Carlo evaluation replays the same
	// common-random-number stream (seeded Seed+1) from its start and
	// results fold in candidate order, so the learned strategy is
	// bit-identical for any workers value.
	Workers int
	// Telemetry, when set, receives one observation per objective
	// evaluation (count + best-so-far). It is a pure observer attached
	// outside the rng/fold path: the learned strategy is bit-identical with
	// or without it.
	Telemetry *telemetry.Training
}

func (c Algorithm1Config) validate() error {
	if c.Optimizer == nil {
		return fmt.Errorf("%w: nil optimizer", ErrBadAlgorithm1Config)
	}
	if c.DeltaR < 0 {
		return fmt.Errorf("%w: deltaR = %d", ErrBadAlgorithm1Config, c.DeltaR)
	}
	if c.Budget < 2 {
		return fmt.Errorf("%w: budget = %d", ErrBadAlgorithm1Config, c.Budget)
	}
	if c.Episodes < 1 || c.Horizon < 1 {
		return fmt.Errorf("%w: episodes = %d, horizon = %d",
			ErrBadAlgorithm1Config, c.Episodes, c.Horizon)
	}
	if !TapeFits(c.Episodes, c.Horizon) {
		return fmt.Errorf("%w: episodes = %d, horizon = %d need more than %d draws",
			ErrBadAlgorithm1Config, c.Episodes, c.Horizon, MaxTapeDraws)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers = %d", ErrBadAlgorithm1Config, c.Workers)
	}
	return nil
}

// Algorithm1Result bundles the learned strategy with the optimizer trace.
type Algorithm1Result struct {
	// Strategy is the best threshold strategy found.
	Strategy *ThresholdStrategy
	// Cost is the Monte-Carlo estimate of J_i at Strategy.
	Cost float64
	// Search is the optimizer's result (trace, evaluations, elapsed time).
	Search *opt.Result
}

// Algorithm1 runs the paper's Algorithm 1: it parameterizes the strategy
// space with ThresholdDim(deltaR) thresholds (exploiting Theorem 1), defines
// the objective as the Monte-Carlo estimate of J_i (eq. 5) under the BTR
// constraint, and delegates the search to the given parametric optimizer.
// Cancelling ctx aborts the search within one objective call (at most
// opt.Lanes candidates a worker) and returns the context's error.
func Algorithm1(ctx context.Context, p nodemodel.Params, cfg Algorithm1Config) (*Algorithm1Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if p.NumObs() > maxTapeAlerts {
		return nil, fmt.Errorf("%w: %d alert values, the tape holds at most %d",
			ErrBadAlgorithm1Config, p.NumObs(), maxTapeAlerts)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dim := ThresholdDim(cfg.DeltaR)
	simCfg := SimConfig{Episodes: cfg.Episodes, Horizon: cfg.Horizon, DeltaR: cfg.DeltaR}

	// Common random numbers: every candidate is scored on the same uniform
	// stream, rand.New(rand.NewSource(Seed+1)), which reduces the variance
	// of comparisons between candidates. The stream's first maxDraws values
	// — all one evaluation can consume — are recorded once, decoded, and
	// every candidate replays them from the start, so each sees exactly the
	// stream a fresh rng would give it. The tape is read-only, which makes
	// the objective safe for the optimizer's concurrent batches: no
	// candidate's draws can shift another's.
	scorer := newLaneScorer(p, simCfg, cfg.Seed+1)
	objective := func(thetas [][]float64, out []float64) {
		if ctx.Err() != nil {
			// Cancelled: short-circuit the remaining budget so the search
			// unwinds quickly; the result is discarded below.
			for i := range out {
				out[i] = 1e9
			}
			return
		}
		scorer.score(thetas, out)
	}
	objective = cfg.Telemetry.Objective(objective)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	searchRng := rand.New(rand.NewSource(cfg.Seed))
	res, err := cfg.Optimizer.Minimize(searchRng, dim, objective, cfg.Budget, workers)
	if err != nil {
		return nil, fmt.Errorf("recovery: algorithm 1 (%s): %w", cfg.Optimizer.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	strategy, err := NewThresholdStrategy(res.Theta, cfg.DeltaR)
	if err != nil {
		return nil, err
	}
	return &Algorithm1Result{Strategy: strategy, Cost: res.Value, Search: res}, nil
}
