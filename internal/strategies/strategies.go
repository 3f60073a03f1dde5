// Package strategies defines the first-class Strategy abstraction of the
// evaluation harness: every controller the paper evaluates — the Theorem 1
// threshold recovery solved exactly by dynamic programming, the Algorithm 1
// learned policies (CEM, DE, BO, SPSA), PPO, Algorithm 2 replication, and
// the §VIII-B baselines — is one registered implementation of a single
// interface, and the fleet engine is generic over the registry instead of a
// closed policy enum.
//
// A Strategy is a named policy *family*: given a concrete scenario
// configuration (a Spec) it constructs the decision rule (a
// baselines.Policy) that the emulation executes. Construction may be a pure
// table lookup (the baselines), an exact solve routed through the shared
// Solvers cache (TOLERANCE), or a full training run (the learned:* kinds).
// Fingerprint canonicalizes the construction inputs so strategy caches
// build each distinct policy exactly once per grid.
package strategies

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tolerance/internal/baselines"
	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
)

// ErrUnknownStrategy is wrapped by the errors a suite's validation and a
// fleet strategy cache return for a policy name that is not in the registry.
var ErrUnknownStrategy = errors.New("strategies: unknown strategy")

// ErrBadStrategy is returned for invalid registrations.
var ErrBadStrategy = errors.New("strategies: bad strategy")

// Spec is one concrete scenario configuration a strategy builds its policy
// for: the node model, the system shape, and — for learned strategies — the
// deterministic training seed and budget.
type Spec struct {
	// Params is the node model of eq. (2)-(5).
	Params nodemodel.Params
	// N1 is the initial system size, SMax the replication cap, F the
	// tolerance threshold, K the parallel-recovery allowance.
	N1, SMax, F, K int
	// DeltaR is the BTR bound (recovery.InfiniteDeltaR = none).
	DeltaR int
	// EpsilonA is the availability bound of the replication CMDP.
	EpsilonA float64
	// Seed drives training randomness of learned strategies. Engines
	// derive it deterministically (suite seed x strategy fingerprint), so
	// a learned policy is identical across workers, shards and resumes.
	Seed int64
	// Budget, Episodes and Horizon tune Algorithm 1 training; Iterations
	// tunes PPO. Zero selects the package defaults.
	Budget, Episodes, Horizon, Iterations int
	// Workers bounds the concurrent candidate/rollout evaluations of a
	// learned strategy's training run (0 defaults to GOMAXPROCS). It is a
	// throughput knob, not an identity input: training is bit-identical for
	// any value, so Workers is deliberately excluded from fingerprints.
	Workers int
	// Telemetry, when set, receives coarse training progress (objective
	// evaluations, best-so-far, PPO iterations) from learned strategies'
	// construction. Like Workers it is a pure observer, not an identity
	// input, and is deliberately excluded from fingerprints.
	Telemetry *telemetry.Training
}

// Solvers is the memoized control-problem interface strategies build on.
// The fleet strategy cache implements it; each distinct solve runs once per
// cache no matter how many scenarios request it.
type Solvers interface {
	// Recovery solves Problem 1 exactly (recovery.SolveDP).
	Recovery(p nodemodel.Params, cfg recovery.DPConfig) (*recovery.DPSolution, error)
	// ReplicationFor solves Problem 2 for a recovery decision rule; recFP
	// canonicalizes the rule for the cache key (a threshold strategy's is
	// its Fingerprint).
	ReplicationFor(p nodemodel.Params, rec recovery.Strategy, recFP string, smax, f int, epsilonA float64, deltaR int) (*cmdp.Solution, error)
}

// Strategy is a named, registered control-strategy family. Implementations
// must be safe for concurrent use, and the policies they build must be safe
// for concurrent use across scenarios.
type Strategy interface {
	// Name is the registry key — the policy kind in suite files and grids.
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Fingerprint canonicalizes the construction inputs for the spec, so
	// caches can share one built policy across every scenario that would
	// construct an identical one.
	Fingerprint(spec Spec) string
	// Policy constructs the decision rule for the spec. ctx cancels
	// long-running construction (training); solvers memoizes the control-
	// problem solves and must be non-nil for strategies that solve.
	Policy(ctx context.Context, spec Spec, solvers Solvers) (baselines.Policy, error)
}

// SeedReader reports whether a strategy's construction reads Spec.Seed. A
// strategy that does not implement it is taken to read it. One that does
// not has the same fingerprint whatever the seed, so a cache builds its
// fingerprint once, before deriving the training seed from it; every
// built-in implements it.
type SeedReader interface {
	ReadsSeed() bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]Strategy{}
)

// Register adds a strategy to the registry. Registering a nil strategy, an
// empty name, or a name already taken is an error.
func Register(s Strategy) error {
	if s == nil {
		return fmt.Errorf("%w: nil strategy", ErrBadStrategy)
	}
	name := s.Name()
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadStrategy)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; ok {
		return fmt.Errorf("%w: %q already registered", ErrBadStrategy, name)
	}
	registry[name] = s
	return nil
}

// Lookup resolves a registered strategy by name.
func Lookup(name string) (Strategy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names lists the registered strategy names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
