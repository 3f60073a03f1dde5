package tolerance

import (
	"context"
	"fmt"
	"math/rand"

	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/ppo"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
)

// Problem is one of the paper's two control problems; RecoveryProblem and
// ReplicationProblem are the implementations.
type Problem interface {
	problem()
}

// RecoveryProblem is Problem 1 (optimal intrusion recovery): when should a
// node recover, given its compromise belief and the BTR bound?
type RecoveryProblem struct {
	// Model holds the node-model parameters (DefaultNodeModel for the
	// paper's Table 8 values).
	Model NodeModel
	// DeltaR is the BTR bound (InfiniteDeltaR for the unconstrained
	// problem).
	DeltaR int
}

func (RecoveryProblem) problem() {}

// ReplicationProblem is Problem 2 (optimal replication factor): how many
// nodes should the system maintain under the availability constraint?
type ReplicationProblem struct {
	// SMax bounds the system size, F is the tolerance threshold.
	SMax, F int
	// EpsilonA is the availability lower bound (eq. 10b).
	EpsilonA float64
	// Q is the per-step probability that a healthy node remains healthy
	// (estimate it with a recovery solve + simulation, or from domain
	// knowledge; §V-A cites Google/Meta/IBM procedures).
	Q float64
}

func (ReplicationProblem) problem() {}

// Solve methods (WithMethod). The Algorithm 1 optimizer names
// (OptimizerCEM, OptimizerDE, OptimizerBO, OptimizerSPSA, OptimizerRandom)
// are also valid recovery methods.
const (
	// MethodDP solves Problem 1 exactly by dynamic programming (default).
	MethodDP = "dp"
	// MethodPPO trains the PPO baseline of Table 2.
	MethodPPO = "ppo"
)

// Optimizers available to Algorithm 1 (Table 2).
const (
	OptimizerCEM    = "cem"
	OptimizerDE     = "de"
	OptimizerBO     = "bo"
	OptimizerSPSA   = "spsa"
	OptimizerRandom = "random"
)

// RecoveryStrategy is a Problem 1 solution: a recovery decision rule over
// (belief, BTR window position). Threshold methods (Theorem 1) expose their
// thresholds; PPO policies decide through the trained network and leave
// Thresholds empty.
type RecoveryStrategy struct {
	// Thresholds are alpha*_k per window position (a single entry when
	// DeltaR is infinite; empty for non-threshold policies such as PPO).
	Thresholds []float64
	// DeltaR is the BTR bound the strategy was computed for.
	DeltaR int
	// ExpectedCost is the estimated long-run average cost J (eq. 5).
	ExpectedCost float64

	inner recovery.Strategy
}

// ShouldRecover applies the strategy.
func (s *RecoveryStrategy) ShouldRecover(belief float64, windowPos int) bool {
	return s.inner.Action(belief, windowPos) == nodemodel.Recover
}

// ReplicationStrategy is the Problem 2 solution: the probability of adding
// a node per healthy-node-count state (Fig 13a).
type ReplicationStrategy struct {
	// AddProbability is pi*(a=1 | s) for s = 0..SMax.
	AddProbability []float64
	// ExpectedNodes is the stationary objective value J (eq. 9).
	ExpectedNodes float64
	// Availability is the achieved stationary availability (eq. 10b).
	Availability float64

	inner *cmdp.Solution
}

// ShouldAdd samples the randomized strategy for state s.
func (r *ReplicationStrategy) ShouldAdd(rng *rand.Rand, s int) bool {
	return r.inner.Sample(rng, s) == 1
}

// Solution is the result of Solve: exactly one of Recovery and Replication
// is set, matching the problem solved.
type Solution struct {
	// Method is the solver that produced the solution ("dp", "cem", ...).
	Method string
	// Recovery is set for a RecoveryProblem.
	Recovery *RecoveryStrategy
	// Replication is set for a ReplicationProblem.
	Replication *ReplicationStrategy
}

// Solve computes the optimal (or learned) strategy for one control problem.
//
// For a RecoveryProblem, WithMethod selects the solver — MethodDP (default)
// computes the exact Theorem 1 thresholds, the Algorithm 1 optimizer names
// learn thresholds by parametric search, and MethodPPO trains the Table 2
// PPO baseline — with WithBudget bounding the training effort and WithSeed
// fixing the training randomness. For a ReplicationProblem, Algorithm 2's
// occupancy-measure linear program is the only method.
//
// Validation failures wrap ErrBadInput; ctx cancellation is honored between
// solver stages.
func Solve(ctx context.Context, p Problem, opts ...Option) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := collectOptions(opts)
	if o.budget < 0 {
		return nil, fmt.Errorf("%w: budget %d", ErrBadInput, o.budget)
	}
	switch pr := p.(type) {
	case RecoveryProblem:
		return solveRecovery(ctx, pr, o)
	case ReplicationProblem:
		return solveReplication(pr, o)
	case nil:
		return nil, fmt.Errorf("%w: nil problem", ErrBadInput)
	default:
		return nil, fmt.Errorf("%w: unknown problem type %T", ErrBadInput, p)
	}
}

func solveRecovery(ctx context.Context, pr RecoveryProblem, o options) (*Solution, error) {
	if pr.DeltaR < 0 {
		return nil, fmt.Errorf("%w: deltaR %d", ErrBadInput, pr.DeltaR)
	}
	params := pr.Model.toParams()
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	method := o.method
	if method == "" {
		method = MethodDP
	}
	seed := o.seed
	if seed == 0 {
		seed = 1
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("%w: workers %d", ErrBadInput, o.workers)
	}
	switch method {
	case MethodDP:
		// The DP writes its thresholds into the inner strategy's half of
		// one slab; the public copy is the other half.
		dim := recovery.ThresholdDim(pr.DeltaR)
		floats := make([]float64, 2*dim)
		inner := recovery.ThresholdStrategy{Thresholds: floats[dim:]}
		cost, err := recovery.SolveDPTo(params, recovery.DPConfig{DeltaR: pr.DeltaR}, nil, &inner)
		if err != nil {
			return nil, err
		}
		copy(floats, inner.Thresholds)
		ans := &recoveryAnswer{inner: inner}
		return ans.solution(method, floats[:dim:dim], pr.DeltaR, cost, &ans.inner), nil
	case MethodPPO:
		res, err := ppo.Train(ctx, params, ppo.Config{
			DeltaR:     pr.DeltaR,
			Iterations: o.budget, // zero keeps the ppo default
			Seed:       seed,
			Workers:    o.workers, // zero defaults to GOMAXPROCS
			Telemetry:  telemetry.NewTraining(o.telemetry.collector()),
		})
		if err != nil {
			return nil, err
		}
		return new(recoveryAnswer).solution(method, nil, pr.DeltaR, res.Cost, res.Policy), nil
	default:
		// Any name in the shared optimizer table is an Algorithm 1 method.
		po, ok := opt.ByName(method)
		if !ok {
			return nil, fmt.Errorf("%w: unknown method %q", ErrBadInput, method)
		}
		budget := o.budget
		if budget == 0 {
			budget = 400
		}
		if budget < 2 {
			return nil, fmt.Errorf("%w: budget %d (Algorithm 1 needs >= 2)", ErrBadInput, budget)
		}
		res, err := recovery.Algorithm1(ctx, params, recovery.Algorithm1Config{
			DeltaR:    pr.DeltaR,
			Optimizer: po,
			Budget:    budget,
			Episodes:  50, // Table 8: M = 50
			Horizon:   200,
			Seed:      seed,
			Workers:   o.workers, // zero defaults to GOMAXPROCS
			Telemetry: telemetry.NewTraining(o.telemetry.collector()),
		})
		if err != nil {
			return nil, err
		}
		thresholds := append([]float64(nil), res.Strategy.Thresholds...)
		return new(recoveryAnswer).solution(method, thresholds, pr.DeltaR, res.Cost, res.Strategy), nil
	}
}

// recoveryAnswer is a recovery Solution, its strategy and, for the DP, the
// inner threshold strategy, allocated as one block.
type recoveryAnswer struct {
	sol   Solution
	rec   RecoveryStrategy
	inner recovery.ThresholdStrategy
}

// solution fills the block around the public thresholds and the inner
// decision rule and returns its Solution.
func (a *recoveryAnswer) solution(method string, thresholds []float64, deltaR int, cost float64, inner recovery.Strategy) *Solution {
	a.rec = RecoveryStrategy{Thresholds: thresholds, DeltaR: deltaR, ExpectedCost: cost, inner: inner}
	a.sol = Solution{Method: method, Recovery: &a.rec}
	return &a.sol
}

// replicationAnswer is a replication Solution, its strategy and the inner
// LP solution, allocated as one block.
type replicationAnswer struct {
	sol   Solution
	rep   ReplicationStrategy
	inner cmdp.Solution
}

func solveReplication(pr ReplicationProblem, o options) (*Solution, error) {
	if o.method != "" && o.method != MethodDP {
		return nil, fmt.Errorf("%w: method %q (Algorithm 2's LP is the only replication solver)",
			ErrBadInput, o.method)
	}
	a := cmdp.AcquireArena()
	defer a.Release()
	model, err := a.BinomialModel(pr.SMax, pr.F, pr.EpsilonA, pr.Q, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	// One slab: the public add probabilities, then the LP solution's
	// policy and occupancy measure.
	n := pr.SMax + 1
	floats := make([]float64, (2+cmdp.NumActions)*n)
	var inner cmdp.Solution
	if err := a.SolveTo(model, &inner, floats[n:]); err != nil {
		return nil, err
	}
	copy(floats, inner.Policy)
	ans := &replicationAnswer{inner: inner}
	ans.rep = ReplicationStrategy{
		AddProbability: floats[:n:n],
		ExpectedNodes:  inner.AvgNodes,
		Availability:   inner.Availability,
		inner:          &ans.inner,
	}
	ans.sol = Solution{Method: "lp", Replication: &ans.rep}
	return &ans.sol, nil
}
