package tolerance

import (
	"context"
	"fmt"
	"math/rand"

	"tolerance/internal/baselines"
	"tolerance/internal/nodemodel"
	"tolerance/internal/strategies"
)

// NodeState is the per-node information available to a recovery decision at
// one time step (the node controller's view, eq. 4 and eq. 6b).
type NodeState struct {
	// Belief is the node's current compromise belief b_t.
	Belief float64
	// Obs is the latest priority-weighted alert count o_t.
	Obs int
	// WindowPos is the node's position in its BTR calendar window
	// (1..DeltaR-1); the forced position 0 is applied by the emulation.
	WindowPos int
	// DeltaR is the BTR bound (InfiniteDeltaR when unconstrained).
	DeltaR int
}

// SystemState is the global information available to the replication
// decision at one time step (the system controller's view, eq. 8).
type SystemState struct {
	// HealthyEstimate is s_t = floor(sum_i (1 - b_i)).
	HealthyEstimate int
	// AliveNodes is the current replication factor N_t.
	AliveNodes int
	// Observations are the latest alert counts of alive nodes.
	Observations []int
	// MeanObs is the historical mean alert count E[O_t].
	MeanObs float64
	// Rng drives randomized decisions; it is the scenario's deterministic
	// stream, so randomized policies stay reproducible.
	Rng *rand.Rand
}

// Policy is the decision rule of a two-level control strategy: a per-node
// recovery decision plus a global replication decision, evaluated by the
// emulation once per node and step.
type Policy interface {
	// Name identifies the policy in tables and reports.
	Name() string
	// UsesBTR reports whether the emulation should apply the forced
	// calendar recoveries of eq. (6b).
	UsesBTR() bool
	// Recover decides whether one node recovers this step.
	Recover(NodeState) bool
	// AddNode decides whether the system grows this step.
	AddNode(SystemState) bool
}

// ScenarioSpec is the concrete scenario configuration a Strategy builds its
// Policy for: the node model, the system shape, and the deterministic
// training seed for learned strategies.
type ScenarioSpec struct {
	// Model holds the node-model parameters of eq. (2)-(5).
	Model NodeModel
	// N1 is the initial system size, SMax the replication cap, F the
	// tolerance threshold, K the parallel-recovery allowance.
	N1, SMax, F, K int
	// DeltaR is the BTR bound (InfiniteDeltaR = none).
	DeltaR int
	// EpsilonA is the availability bound of the replication CMDP.
	EpsilonA float64
	// Seed drives training randomness; fleet engines derive it from the
	// suite seed and the strategy fingerprint, so it is identical across
	// workers, shards and resumes.
	Seed int64
}

// Strategy is a named control-strategy family: given a concrete scenario
// configuration it constructs the decision rule the emulation executes.
// Registered strategies are valid policy kinds in fleet suites and JSON
// suite files, next to the built-ins (TOLERANCE, the §VIII-B baselines, and
// the learned:* kinds). Implementations must be safe for concurrent use,
// and the policies they build must be safe for concurrent use across
// scenarios.
type Strategy interface {
	// Name is the registry key — the policy kind in suite definitions.
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Fingerprint canonicalizes the construction inputs so caches build
	// one policy per distinct spec. Two specs with equal fingerprints must
	// construct interchangeable policies.
	Fingerprint(spec ScenarioSpec) string
	// Policy constructs the decision rule for the spec; ctx cancels
	// long-running construction.
	Policy(ctx context.Context, spec ScenarioSpec) (Policy, error)
}

// RegisterStrategy adds a custom strategy to the registry, making its name
// a valid policy kind in every suite and grid. Registration fails with
// ErrBadInput for a nil strategy, an empty name, or a name already taken
// (all built-in names are taken).
func RegisterStrategy(s Strategy) error {
	if s == nil {
		return fmt.Errorf("%w: nil strategy", ErrBadInput)
	}
	if err := strategies.Register(&strategyAdapter{s}); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return nil
}

// StrategyInfo describes one registered strategy.
type StrategyInfo struct {
	// Name is the registry key (the policy kind).
	Name string
	// Description is the strategy's one-line summary.
	Description string
}

// Strategies lists every registered strategy — built-in and custom — in
// sorted name order.
func Strategies() []StrategyInfo {
	names := strategies.Names()
	infos := make([]StrategyInfo, 0, len(names))
	for _, name := range names {
		s, ok := strategies.Lookup(name)
		if !ok {
			continue
		}
		infos = append(infos, StrategyInfo{Name: name, Description: s.Describe()})
	}
	return infos
}

// strategyAdapter lifts a facade Strategy into the internal registry
// interface the fleet engine resolves policy kinds against.
type strategyAdapter struct {
	s Strategy
}

func (a *strategyAdapter) Name() string     { return a.s.Name() }
func (a *strategyAdapter) Describe() string { return a.s.Describe() }

func (a *strategyAdapter) Fingerprint(spec strategies.Spec) string {
	return a.s.Fingerprint(publicSpec(spec))
}

func (a *strategyAdapter) Policy(ctx context.Context, spec strategies.Spec, _ strategies.Solvers) (baselines.Policy, error) {
	p, err := a.s.Policy(ctx, publicSpec(spec))
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%w: strategy %q built a nil policy", ErrBadInput, a.s.Name())
	}
	return policyAdapter{p}, nil
}

// publicSpec converts the internal spec to the facade representation.
func publicSpec(spec strategies.Spec) ScenarioSpec {
	return ScenarioSpec{
		Model: NodeModel{
			PA:  spec.Params.PA,
			PC1: spec.Params.PC1,
			PC2: spec.Params.PC2,
			PU:  spec.Params.PU,
			Eta: spec.Params.Eta,
		},
		N1:       spec.N1,
		SMax:     spec.SMax,
		F:        spec.F,
		K:        spec.K,
		DeltaR:   spec.DeltaR,
		EpsilonA: spec.EpsilonA,
		Seed:     spec.Seed,
	}
}

// policyAdapter lifts a facade Policy into the emulation's internal policy
// interface.
type policyAdapter struct {
	p Policy
}

func (a policyAdapter) UsesBTR() bool { return a.p.UsesBTR() }

func (a policyAdapter) NodeAction(ctx baselines.NodeContext) nodemodel.Action {
	if a.p.Recover(NodeState{
		Belief:    ctx.Belief,
		Obs:       ctx.Obs,
		WindowPos: ctx.WindowPos,
		DeltaR:    ctx.DeltaR,
	}) {
		return nodemodel.Recover
	}
	return nodemodel.Wait
}

func (a policyAdapter) AddNode(ctx baselines.SystemContext) bool {
	return a.p.AddNode(SystemState{
		HealthyEstimate: ctx.HealthyEstimate,
		AliveNodes:      ctx.AliveNodes,
		Observations:    ctx.Observations,
		MeanObs:         ctx.MeanObs,
		Rng:             ctx.Rng,
	})
}
