package strategies

import (
	"context"
	"fmt"
	"strconv"

	"tolerance/internal/baselines"
	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/ppo"
	"tolerance/internal/recovery"
)

// Default training budgets for the learned strategy kinds. Suites override
// them per grid (fleet suite files carry an optional "learned" block);
// the defaults keep a learned cell affordable inside a wide sweep.
const (
	// DefaultBudget is the Algorithm 1 objective-evaluation budget.
	DefaultBudget = 120
	// DefaultEpisodes is M, the Monte-Carlo episodes per evaluation.
	DefaultEpisodes = 20
	// DefaultHorizon is the simulated episode length.
	DefaultHorizon = 150
	// DefaultIterations is the PPO rollout/update cycle count.
	DefaultIterations = 10
)

// dpGridSize is the evaluation harness's Problem 1 solver grid (accurate
// thresholds at grid-sweep speed). It is part of the TOLERANCE fingerprint
// contract: changing it invalidates strategy caches and shifts thresholds.
const dpGridSize = 300

func mustRegister(s Strategy) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister(toleranceStrategy{})
	mustRegister(noRecoveryStrategy{})
	mustRegister(periodicStrategy{})
	mustRegister(periodicAdaptiveStrategy{})
	for _, l := range []learnedStrategy{
		{kind: "cem", describe: "Algorithm 1 thresholds learned by the cross-entropy method"},
		{kind: "de", describe: "Algorithm 1 thresholds learned by differential evolution"},
		{kind: "bo", describe: "Algorithm 1 thresholds learned by Bayesian optimization"},
		{kind: "spsa", describe: "Algorithm 1 thresholds learned by SPSA"},
		{kind: "random", describe: "Algorithm 1 thresholds from random search (sanity floor)"},
	} {
		if _, ok := opt.ByName(l.kind); !ok {
			panic("strategies: no optimizer named " + l.kind)
		}
		mustRegister(l)
	}
	mustRegister(ppoStrategy{})
}

// toleranceStrategy is the paper's feedback strategy pair: exact DP
// recovery thresholds (Theorem 1) plus the CMDP replication strategy
// (Algorithm 2), both routed through the shared solver cache.
type toleranceStrategy struct{}

func (toleranceStrategy) Name() string { return "TOLERANCE" }

func (toleranceStrategy) Describe() string {
	return "Theorem 1 DP recovery thresholds + Algorithm 2 CMDP replication"
}

func (toleranceStrategy) ReadsSeed() bool { return false }

func (toleranceStrategy) Fingerprint(spec Spec) string {
	var buf [fingerprintBuf]byte
	return string(appendProblem(buf[:0], spec))
}

// fingerprintBuf fits every built-in fingerprint, so building one takes a
// single allocation: the returned string.
const fingerprintBuf = 160

// appendProblem appends the node model's fingerprint and the system shape
// the replication strategy is solved for — the "%s|dr=%d|smax=%d|f=%d|eps=%x"
// prefix every solver-backed fingerprint starts with.
func appendProblem(b []byte, spec Spec) []byte {
	b = spec.Params.Digest().AppendHex(b)
	b = appendInt(b, "|dr=", spec.DeltaR)
	b = appendInt(b, "|smax=", spec.SMax)
	b = appendInt(b, "|f=", spec.F)
	b = append(b, "|eps="...)
	return strconv.AppendFloat(b, spec.EpsilonA, 'x', -1, 64)
}

// appendInt appends a "|name=" label and the decimal value.
func appendInt[T int | int64](b []byte, label string, v T) []byte {
	return strconv.AppendInt(append(b, label...), int64(v), 10)
}

func (toleranceStrategy) Policy(_ context.Context, spec Spec, solvers Solvers) (baselines.Policy, error) {
	if solvers == nil {
		return nil, fmt.Errorf("%w: TOLERANCE needs a solver cache", ErrBadStrategy)
	}
	dp, err := solvers.Recovery(spec.Params, recovery.DPConfig{DeltaR: spec.DeltaR, GridSize: dpGridSize})
	if err != nil {
		return nil, err
	}
	rec := dp.Strategy(spec.DeltaR)
	rep, err := solvers.ReplicationFor(spec.Params, rec, rec.Fingerprint(), spec.SMax, spec.F, spec.EpsilonA, spec.DeltaR)
	if err != nil {
		return nil, err
	}
	return baselines.NewTolerance(rec, rep)
}

// noRecoveryStrategy is the NO-RECOVERY baseline (RAMPART, SECURE-RING).
type noRecoveryStrategy struct{}

func (noRecoveryStrategy) Name() string { return "NO-RECOVERY" }

func (noRecoveryStrategy) Describe() string {
	return "never recovers or adds nodes (RAMPART, SECURE-RING)"
}

func (noRecoveryStrategy) ReadsSeed() bool { return false }

func (noRecoveryStrategy) Fingerprint(Spec) string { return "static" }

func (noRecoveryStrategy) Policy(context.Context, Spec, Solvers) (baselines.Policy, error) {
	return baselines.NoRecovery{}, nil
}

// periodicStrategy is the PERIODIC baseline (PBFT, VM-FIT, WORM-IT, PRRW).
type periodicStrategy struct{}

func (periodicStrategy) Name() string { return "PERIODIC" }

func (periodicStrategy) Describe() string {
	return "recovers every Delta_R steps, never adds nodes (PBFT, VM-FIT)"
}

func (periodicStrategy) ReadsSeed() bool { return false }

func (periodicStrategy) Fingerprint(Spec) string { return "static" }

func (periodicStrategy) Policy(context.Context, Spec, Solvers) (baselines.Policy, error) {
	return baselines.Periodic{}, nil
}

// periodicAdaptiveStrategy is the PERIODIC-ADAPTIVE baseline (SITAR, ITSI,
// ITUA approximation).
type periodicAdaptiveStrategy struct{}

func (periodicAdaptiveStrategy) Name() string { return "PERIODIC-ADAPTIVE" }

func (periodicAdaptiveStrategy) Describe() string {
	return "periodic recovery + add a node when an observation doubles its mean (SITAR, ITUA)"
}

func (periodicAdaptiveStrategy) ReadsSeed() bool { return false }

func (periodicAdaptiveStrategy) Fingerprint(spec Spec) string {
	// TargetN caps additions, so the built policy depends on N1.
	return "n1=" + strconv.Itoa(spec.N1)
}

func (periodicAdaptiveStrategy) Policy(_ context.Context, spec Spec, _ Solvers) (baselines.Policy, error) {
	return baselines.PeriodicAdaptive{TargetN: spec.N1}, nil
}

// learnedStrategy wraps one Algorithm 1 parametric optimizer (resolved
// from opt.ByName by kind): thresholds are learned by Monte-Carlo search
// instead of solved exactly, then paired with the same Algorithm 2
// replication strategy TOLERANCE uses, so fleet grids compare learned and
// exact recovery under identical replication.
type learnedStrategy struct {
	kind     string
	describe string
}

func (s learnedStrategy) Name() string { return "learned:" + s.kind }

func (s learnedStrategy) Describe() string { return s.describe }

func (s learnedStrategy) config(spec Spec) recovery.Algorithm1Config {
	po, _ := opt.ByName(s.kind) // existence checked at registration
	cfg := recovery.Algorithm1Config{
		DeltaR:    spec.DeltaR,
		Optimizer: po,
		Budget:    spec.Budget,
		Episodes:  spec.Episodes,
		Horizon:   spec.Horizon,
		Seed:      spec.Seed,
		Workers:   spec.Workers,
		Telemetry: spec.Telemetry,
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Episodes <= 0 {
		cfg.Episodes = DefaultEpisodes
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	return cfg
}

func (learnedStrategy) ReadsSeed() bool { return true }

func (s learnedStrategy) Fingerprint(spec Spec) string {
	cfg := s.config(spec)
	var buf [fingerprintBuf]byte
	b := appendProblem(buf[:0], spec)
	b = appendInt(b, "|b=", cfg.Budget)
	b = appendInt(b, "|m=", cfg.Episodes)
	b = appendInt(b, "|h=", cfg.Horizon)
	return string(appendInt(b, "|seed=", spec.Seed))
}

func (s learnedStrategy) Policy(ctx context.Context, spec Spec, solvers Solvers) (baselines.Policy, error) {
	if solvers == nil {
		return nil, fmt.Errorf("%w: %s needs a solver cache", ErrBadStrategy, s.Name())
	}
	res, err := recovery.Algorithm1(ctx, spec.Params, s.config(spec))
	if err != nil {
		return nil, err
	}
	rep, err := solvers.ReplicationFor(spec.Params, res.Strategy, res.Strategy.Fingerprint(),
		spec.SMax, spec.F, spec.EpsilonA, spec.DeltaR)
	if err != nil {
		return nil, err
	}
	return baselines.NewTolerance(res.Strategy, rep)
}

// ppoStrategy trains the PPO baseline of Table 2 for the cell's node model
// and pairs it with the Algorithm 2 replication strategy.
type ppoStrategy struct{}

func (ppoStrategy) Name() string { return "learned:ppo" }

func (ppoStrategy) Describe() string {
	return "stochastic recovery policy trained with PPO (Table 2 baseline)"
}

func (ppoStrategy) config(spec Spec) ppo.Config {
	cfg := ppo.Config{
		DeltaR:     spec.DeltaR,
		Iterations: spec.Iterations,
		Horizon:    spec.Horizon,
		Seed:       spec.Seed,
		Workers:    spec.Workers,
		Telemetry:  spec.Telemetry,
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = DefaultIterations
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	return cfg
}

func (ppoStrategy) ReadsSeed() bool { return true }

func (s ppoStrategy) Fingerprint(spec Spec) string {
	cfg := s.config(spec)
	var buf [fingerprintBuf]byte
	b := appendProblem(buf[:0], spec)
	b = appendInt(b, "|it=", cfg.Iterations)
	b = appendInt(b, "|h=", cfg.Horizon)
	return string(appendInt(b, "|seed=", spec.Seed))
}

func (s ppoStrategy) Policy(ctx context.Context, spec Spec, solvers Solvers) (baselines.Policy, error) {
	if solvers == nil {
		return nil, fmt.Errorf("%w: learned:ppo needs a solver cache", ErrBadStrategy)
	}
	res, err := ppo.Train(ctx, spec.Params, s.config(spec))
	if err != nil {
		return nil, err
	}
	rep, err := solvers.ReplicationFor(spec.Params, res.Policy, "ppo|"+s.Fingerprint(spec),
		spec.SMax, spec.F, spec.EpsilonA, spec.DeltaR)
	if err != nil {
		return nil, err
	}
	return &ppoPolicy{policy: res.Policy, replication: rep}, nil
}

// ppoPolicy adapts a trained PPO recovery policy plus a replication
// solution into the two-level Policy interface.
type ppoPolicy struct {
	policy      *ppo.Policy
	replication *cmdp.Solution
}

func (p *ppoPolicy) UsesBTR() bool { return true }

func (p *ppoPolicy) NodeAction(ctx baselines.NodeContext) nodemodel.Action {
	return p.policy.Action(ctx.Belief, ctx.WindowPos)
}

func (p *ppoPolicy) AddNode(ctx baselines.SystemContext) bool {
	if p.replication == nil {
		return false
	}
	return p.replication.Sample(ctx.Rng, ctx.HealthyEstimate) == 1
}
