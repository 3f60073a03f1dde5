// Package fleet is the parallel scenario-fleet engine: it expands a
// declarative Suite — grids over attacker campaign intensity, node-model
// parameters, workload shapes, system sizes, BTR bounds and control policies
// — into hundreds of concrete emulation scenarios and executes them on a
// bounded worker pool.
//
// Policy kinds are open-ended: a cell's PolicyKind resolves through the
// strategy registry (internal/strategies), so the exact DP strategies, the
// Algorithm 1 learned kinds ("learned:cem" etc.), PPO, the §VIII-B
// baselines, and facade-registered custom strategies all run under the same
// engine and suite schema.
//
// Scale comes from three mechanisms:
//
//   - Deterministic seeding: every scenario's seed is a hash of the suite
//     seed and the scenario index, so results are bit-identical regardless
//     of worker count or scheduling; learned-strategy training seeds derive
//     from the suite seed and the strategy fingerprint, never from
//     scheduling.
//   - A strategy cache (StrategyCache) that memoizes the solved recovery
//     strategies (recovery.SolveDP), replication LPs (cmdp occupancy
//     measures) and built policies (including training runs) keyed by
//     canonicalized construction inputs, so a grid with hundreds of
//     scenarios solves each distinct control problem once.
//   - Streaming aggregation: per-run metrics fold into per-cell Welford
//     summaries (emulation.Accumulator) in scenario-index order, without
//     retaining traces.
//
// Beyond one machine, the same records flow through three scale-out
// layers, each byte-identical to a local run: static sharding
// (Shard/ReadShardSet), durable checkpoints (CreateCheckpoint /
// ReadCheckpoint, with -resume dedupe), and the distributed coordinator
// (Coordinate/ConnectWorker over internal/fleet/proto), which leases
// index-contiguous scenario ranges to remote workers and re-leases them
// from dead ones. docs/ARCHITECTURE.md maps these layers to the paper and
// states the determinism contract they rely on; docs/OPERATIONS.md is the
// coordinator runbook.
package fleet

import (
	"errors"
	"fmt"

	"tolerance/internal/baselines"
	"tolerance/internal/emulation"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/strategies"
)

// ErrBadSuite is returned for invalid suite definitions.
var ErrBadSuite = errors.New("fleet: bad suite")

// PolicyKind names a registered control strategy for a grid cell. Any name
// in the strategy registry (internal/strategies) is a valid kind: the four
// §VIII-B strategies of Table 7, the Algorithm 1 learned kinds
// ("learned:cem", "learned:de", "learned:bo", "learned:spsa",
// "learned:random"), "learned:ppo", and any strategy registered through the
// public facade.
type PolicyKind string

// The four strategies of Table 7.
const (
	PolicyTolerance        PolicyKind = "TOLERANCE"
	PolicyNoRecovery       PolicyKind = "NO-RECOVERY"
	PolicyPeriodic         PolicyKind = "PERIODIC"
	PolicyPeriodicAdaptive PolicyKind = "PERIODIC-ADAPTIVE"
)

// Valid reports whether the kind is a registered strategy.
func (k PolicyKind) Valid() bool {
	_, ok := strategies.Lookup(string(k))
	return ok
}

// PolicyKinds lists every registered strategy name in sorted order — the
// valid values for Suite.Policies and suite-file "policies" entries.
func PolicyKinds() []PolicyKind {
	names := strategies.Names()
	kinds := make([]PolicyKind, len(names))
	for i, n := range names {
		kinds[i] = PolicyKind(n)
	}
	return kinds
}

// LearnedConfig tunes the training budget of the learned:* policy kinds in
// a suite (zero fields select the strategy defaults). It is part of the
// suite schema so learned grids are reproducible from the JSON alone.
type LearnedConfig struct {
	// Budget is the Algorithm 1 objective-evaluation budget.
	Budget int `json:"budget,omitempty"`
	// Episodes is M, the Monte-Carlo episodes per objective evaluation.
	Episodes int `json:"episodes,omitempty"`
	// Horizon is the simulated episode length.
	Horizon int `json:"horizon,omitempty"`
	// Iterations is the PPO rollout/update cycle count.
	Iterations int `json:"iterations,omitempty"`
	// Workers bounds the concurrent candidate/rollout evaluations inside
	// one learned training run (0 defaults to GOMAXPROCS). Training is
	// bit-identical for any value, so Workers — unlike the budget fields —
	// is a throughput knob, not part of the grid's identity: it is excluded
	// from Suite.Fingerprint, and checkpoints written at one value resume
	// and merge with runs at another.
	Workers int `json:"workers,omitempty"`
}

// CrashProfile pairs the two crash probabilities of eq. (2): pC1 in the
// healthy state, pC2 in the compromised state.
type CrashProfile struct {
	PC1 float64 `json:"pc1"`
	PC2 float64 `json:"pc2"`
}

// Suite is a declarative scenario grid. Every axis slice is a grid
// dimension; leaving one empty selects a single default value, so the
// expanded scenario count is the product of the non-empty axis lengths
// times len(Policies) times SeedsPerCell.
type Suite struct {
	// Name identifies the suite in CLI output and reports.
	Name string `json:"name"`
	// Description is a one-line summary for suite listings.
	Description string `json:"description,omitempty"`
	// Seed is the master seed; every scenario seed derives from it and the
	// scenario index.
	Seed int64 `json:"seed"`
	// SeedsPerCell is the number of evaluation seeds per grid cell
	// (default 3; the paper's Table 7 uses 20).
	SeedsPerCell int `json:"seedsPerCell"`
	// Steps per scenario run (default 500).
	Steps int `json:"steps"`
	// FitSamples is M for the Ẑ estimation (default 2000 — reduced from
	// the paper's 25,000 to keep wide grids fast; override per suite).
	FitSamples int `json:"fitSamples"`
	// EpsilonA is the availability bound for TOLERANCE's replication LP
	// (default 0.9).
	EpsilonA float64 `json:"epsilonA"`
	// SMax caps the replication factor (default 13, Table 3).
	SMax int `json:"smax"`
	// K is the number of parallel recoveries allowed (default 1).
	K int `json:"k"`

	// AttackRates grids the attacker campaign intensity pA (default {0.1}).
	AttackRates []float64 `json:"attackRates,omitempty"`
	// CrashProfiles grids (pC1, pC2) (default Table 8: {1e-5, 1e-3}).
	CrashProfiles []CrashProfile `json:"crashProfiles,omitempty"`
	// UpdateRates grids pU (default {0.02}).
	UpdateRates []float64 `json:"updateRates,omitempty"`
	// Etas grids the eq. (5) cost weight (default {2}).
	Etas []float64 `json:"etas,omitempty"`
	// Workloads grids the background client population (default Table 8:
	// Poisson(20) arrivals, mean service 4 steps).
	Workloads []emulation.BackgroundWorkload `json:"workloads,omitempty"`
	// N1s grids the initial system size (default {6}).
	N1s []int `json:"n1s,omitempty"`
	// DeltaRs grids the BTR bound (default {15}; use
	// recovery.InfiniteDeltaR for the unconstrained problem).
	DeltaRs []int `json:"deltaRs,omitempty"`
	// Policies grids the control strategy (default: all four of Table 7).
	// Any registered strategy name is valid, including the learned kinds.
	Policies []PolicyKind `json:"policies,omitempty"`

	// Backends grids the scenario execution substrate (registered
	// ScenarioBackend names). Empty selects the default "emulation"
	// backend, exactly as every suite before the axis existed — the field
	// is deliberately NOT filled by withDefaults, so legacy suites and
	// their dumps, fingerprints and scenario indices are untouched. Suites
	// that name any backend require suite-file version 2.
	Backends []string `json:"backends,omitempty"`

	// Learned tunes the training budget for learned:* policy kinds; nil
	// keeps the strategy defaults.
	Learned *LearnedConfig `json:"learned,omitempty"`
}

// withDefaults fills every empty axis and scalar.
func (s Suite) withDefaults() Suite {
	if s.SeedsPerCell <= 0 {
		s.SeedsPerCell = 3
	}
	if s.Steps <= 0 {
		s.Steps = 500
	}
	if s.FitSamples <= 0 {
		s.FitSamples = 2000
	}
	if s.EpsilonA <= 0 {
		s.EpsilonA = 0.9
	}
	if s.SMax <= 0 {
		s.SMax = 13
	}
	if s.K <= 0 {
		s.K = 1
	}
	if len(s.AttackRates) == 0 {
		s.AttackRates = []float64{0.1}
	}
	if len(s.CrashProfiles) == 0 {
		s.CrashProfiles = []CrashProfile{{PC1: 1e-5, PC2: 1e-3}}
	}
	if len(s.UpdateRates) == 0 {
		s.UpdateRates = []float64{0.02}
	}
	if len(s.Etas) == 0 {
		s.Etas = []float64{2}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []emulation.BackgroundWorkload{emulation.DefaultBackgroundWorkload()}
	}
	if len(s.N1s) == 0 {
		s.N1s = []int{6}
	}
	if len(s.DeltaRs) == 0 {
		s.DeltaRs = []int{15}
	}
	if len(s.Policies) == 0 {
		s.Policies = []PolicyKind{
			PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
		}
	}
	return s
}

// Validate checks the (defaulted) suite.
func (s Suite) Validate() error {
	s = s.withDefaults()
	for _, pa := range s.AttackRates {
		if pa <= 0 || pa >= 1 {
			return fmt.Errorf("%w: attack rate %v", ErrBadSuite, pa)
		}
	}
	for _, cp := range s.CrashProfiles {
		if cp.PC1 <= 0 || cp.PC1 >= 1 || cp.PC2 <= 0 || cp.PC2 >= 1 {
			return fmt.Errorf("%w: crash profile %+v", ErrBadSuite, cp)
		}
	}
	for _, pu := range s.UpdateRates {
		if pu <= 0 || pu >= 1 {
			return fmt.Errorf("%w: update rate %v", ErrBadSuite, pu)
		}
	}
	for _, eta := range s.Etas {
		if eta < 1 {
			return fmt.Errorf("%w: eta %v", ErrBadSuite, eta)
		}
	}
	for _, n1 := range s.N1s {
		if n1 < 1 || n1 > s.SMax {
			return fmt.Errorf("%w: N1 %d with smax %d", ErrBadSuite, n1, s.SMax)
		}
	}
	for _, dr := range s.DeltaRs {
		if dr < 0 {
			return fmt.Errorf("%w: deltaR %d", ErrBadSuite, dr)
		}
	}
	for _, p := range s.Policies {
		if !p.Valid() {
			return fmt.Errorf("%w: unknown policy %q (known: %v)",
				ErrBadSuite, p, strategies.Names())
		}
	}
	seenBackends := make(map[string]bool, len(s.Backends))
	for _, b := range s.Backends {
		if _, ok := LookupBackend(b); !ok && b != BackendEmulation {
			return fmt.Errorf("%w: unknown backend %q (known: %v)",
				ErrBadSuite, b, BackendNames())
		}
		if seenBackends[b] {
			return fmt.Errorf("%w: duplicate backend %q", ErrBadSuite, b)
		}
		seenBackends[b] = true
	}
	if lc := s.Learned; lc != nil {
		if lc.Budget < 0 || lc.Episodes < 0 || lc.Horizon < 0 || lc.Iterations < 0 || lc.Workers < 0 {
			return fmt.Errorf("%w: negative learned config %+v", ErrBadSuite, *lc)
		}
	}
	if s.EpsilonA >= 1 {
		return fmt.Errorf("%w: epsilonA %v", ErrBadSuite, s.EpsilonA)
	}
	return nil
}

// Cell is one concrete grid point: a full model/workload/size/policy
// configuration evaluated across SeedsPerCell seeds.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int `json:"index"`
	// Policy is the control strategy under evaluation.
	Policy PolicyKind `json:"policy"`
	// PA, PC1, PC2, PU, Eta are the node-model parameters of eq. (2)-(5).
	PA  float64 `json:"pa"`
	PC1 float64 `json:"pc1"`
	PC2 float64 `json:"pc2"`
	PU  float64 `json:"pu"`
	Eta float64 `json:"eta"`
	// Workload is the background client population.
	Workload emulation.BackgroundWorkload `json:"workload"`
	// N1, SMax, K and DeltaR shape the system-level scenario.
	N1     int `json:"n1"`
	SMax   int `json:"smax"`
	K      int `json:"k"`
	DeltaR int `json:"deltaR"`
	// F is the tolerance threshold (the paper's rule min((N1-1)/2, 2)).
	F int `json:"f"`
	// Backend names the scenario backend executing this cell. The
	// canonical value for the default emulation backend is the empty
	// string ("emulation" in a suite normalizes to it during expansion),
	// so legacy cells — and their JSON — are byte-identical to the
	// pre-backend schema.
	Backend string `json:"backend,omitempty"`
}

// Cells expands the suite grid in a fixed documented order: backend
// outermost (suites without the axis expand exactly as before it existed),
// then attack rate, crash profile, update rate, eta, workload, N1, DeltaR,
// and policy innermost. The order is part of the reproducibility contract —
// scenario indices (and therefore seeds) follow it.
func (s Suite) Cells() []Cell {
	s = s.withDefaults()
	backends := s.Backends
	if len(backends) == 0 {
		backends = []string{BackendEmulation}
	}
	var cells []Cell
	for _, be := range backends {
		backend := be
		if backend == BackendEmulation {
			// Canonical spelling of the default backend is "", keeping
			// legacy cells and their serialization unchanged.
			backend = ""
		}
		for _, pa := range s.AttackRates {
			for _, cp := range s.CrashProfiles {
				for _, pu := range s.UpdateRates {
					for _, eta := range s.Etas {
						for _, wl := range s.Workloads {
							for _, n1 := range s.N1s {
								for _, dr := range s.DeltaRs {
									for _, pol := range s.Policies {
										cells = append(cells, Cell{
											Index:    len(cells),
											Policy:   pol,
											PA:       pa,
											PC1:      cp.PC1,
											PC2:      cp.PC2,
											PU:       pu,
											Eta:      eta,
											Workload: wl,
											N1:       n1,
											SMax:     s.SMax,
											K:        s.K,
											DeltaR:   dr,
											F:        emulation.DefaultThreshold(n1),
											Backend:  backend,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// NumCells returns the grid size.
func (s Suite) NumCells() int {
	s = s.withDefaults()
	return max(1, len(s.Backends)) * len(s.AttackRates) * len(s.CrashProfiles) *
		len(s.UpdateRates) * len(s.Etas) * len(s.Workloads) * len(s.N1s) *
		len(s.DeltaRs) * len(s.Policies)
}

// NumScenarios returns the total number of emulation runs the suite expands
// to.
func (s Suite) NumScenarios() int {
	s = s.withDefaults()
	return s.NumCells() * s.SeedsPerCell
}

// params assembles the cell's node model on the Table 8 observation
// distributions.
func (c Cell) params() nodemodel.Params {
	p := nodemodel.DefaultParams()
	p.PA, p.PC1, p.PC2, p.PU, p.Eta = c.PA, c.PC1, c.PC2, c.PU, c.Eta
	return p
}

// spec assembles the strategy-construction spec for the cell under the
// (defaulted) suite: the cell's model and shape plus the suite's
// availability bound and learned-training budget.
func (c Cell) spec(s Suite) strategies.Spec {
	sp := strategies.Spec{
		Params:   c.params(),
		N1:       c.N1,
		SMax:     c.SMax,
		F:        c.F,
		K:        c.K,
		DeltaR:   c.DeltaR,
		EpsilonA: s.EpsilonA,
	}
	if lc := s.Learned; lc != nil {
		sp.Budget, sp.Episodes, sp.Horizon, sp.Iterations =
			lc.Budget, lc.Episodes, lc.Horizon, lc.Iterations
		sp.Workers = lc.Workers
	}
	return sp
}

// scenario builds the emulation scenario for one seed of the cell.
func (c Cell) scenario(policy baselines.Policy, seed int64, steps, fitSamples int) emulation.Scenario {
	return emulation.Scenario{
		N1:         c.N1,
		SMax:       c.SMax,
		K:          c.K,
		F:          c.F,
		DeltaR:     c.DeltaR,
		Steps:      steps,
		Seed:       seed,
		Params:     c.params(),
		Policy:     policy,
		FitSamples: fitSamples,
		Workload:   c.Workload,
	}
}

// Builtin returns the built-in suites:
//
//   - paper-grid: the §VIII evaluation region — attack rates, BTR bounds
//     and system sizes around Table 7, all four strategies (192 scenarios).
//   - scada-sweep: the SCADA configuration of examples/scada (crash-heavy
//     power-grid substations) swept over crash severity, workload and
//     system size (192 scenarios).
//   - smoke: a four-scenario suite for CI and quick checks.
//   - learned-smoke: Algorithm 1 (CEM) vs the exact DP strategy on a tiny
//     grid — the learned policy kinds exercised end to end.
//   - cluster-smoke: a two-scenario suite on the "cluster" backend — every
//     scenario drives a live MinBFT replica group over loopback TCP with
//     real process restarts (statistically reproducible, not byte-stable).
//   - table7: the paper's Table 7 at its own budget — N1 x DeltaR (15, 25,
//     infinity) x all four strategies, 20 seeds of 1 000 steps, M = 25 000
//     (720 scenarios) on the Table 8 model.
func Builtin() []Suite {
	return []Suite{
		{
			Name:         "paper-grid",
			Description:  "Table 7 region: pA x DeltaR x N1 x all four strategies",
			Seed:         1,
			SeedsPerCell: 4,
			Steps:        500,
			AttackRates:  []float64{0.05, 0.1},
			N1s:          []int{3, 6, 9},
			DeltaRs:      []int{15, 25},
			Policies: []PolicyKind{
				PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
			},
		},
		{
			Name:         "scada-sweep",
			Description:  "examples/scada regime: crash-heavy grid control, swept over crash severity and workload",
			Seed:         1,
			SeedsPerCell: 2,
			Steps:        400,
			EpsilonA:     0.9,
			// examples/scada: pA = 0.08, pC1 = 5e-3, pC2 = 2e-2; the sweep
			// scales crash severity x1, x2, x4 (field-deployment spread).
			AttackRates: []float64{0.08},
			CrashProfiles: []CrashProfile{
				{PC1: 5e-3, PC2: 2e-2},
				{PC1: 1e-2, PC2: 4e-2},
				{PC1: 2e-2, PC2: 8e-2},
			},
			Workloads: []emulation.BackgroundWorkload{
				{Lambda: 20, MeanServiceSteps: 4}, // Table 8 web workload
				{Lambda: 4, MeanServiceSteps: 25}, // SCADA: few long-lived operator sessions
			},
			N1s:     []int{6, 9},
			DeltaRs: []int{25, 50},
			Policies: []PolicyKind{
				PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
			},
		},
		{
			Name:         "smoke",
			Description:  "four-scenario sanity suite for CI",
			Seed:         1,
			SeedsPerCell: 2,
			Steps:        120,
			FitSamples:   500,
			AttackRates:  []float64{0.1},
			N1s:          []int{3},
			DeltaRs:      []int{15},
			Policies:     []PolicyKind{PolicyTolerance, PolicyPeriodic},
		},
		{
			Name:         "learned-smoke",
			Description:  "learned:cem vs the exact DP strategy on a tiny grid",
			Seed:         1,
			SeedsPerCell: 2,
			Steps:        120,
			FitSamples:   500,
			AttackRates:  []float64{0.1},
			N1s:          []int{3},
			DeltaRs:      []int{15},
			Policies:     []PolicyKind{PolicyTolerance, PolicyKind("learned:cem")},
			Learned:      &LearnedConfig{Budget: 40, Episodes: 8, Horizon: 80},
		},
		{
			Name:         "cluster-smoke",
			Description:  "live MinBFT replica group over loopback TCP (backend: cluster)",
			Seed:         1,
			SeedsPerCell: 1,
			Steps:        40,
			FitSamples:   500,
			SMax:         6,
			// Hot enough that the 40-step budget reliably sees intrusions
			// and crashes on a 4-replica group, but cool enough that the
			// group holds quorum for most of the run.
			AttackRates:   []float64{0.12},
			CrashProfiles: []CrashProfile{{PC1: 2e-2, PC2: 4e-2}},
			N1s:           []int{4},
			DeltaRs:       []int{8},
			Policies:      []PolicyKind{PolicyTolerance, PolicyPeriodic},
			Backends:      []string{BackendCluster},
		},
		{
			Name:         "table7",
			Description:  "Table 7: TOLERANCE vs the three baselines over N1 x DeltaR (0 = infinity)",
			Seed:         1,
			SeedsPerCell: 20,
			Steps:        1000,
			FitSamples:   25000,
			N1s:          []int{3, 6, 9},
			DeltaRs:      []int{15, 25, recovery.InfiniteDeltaR},
			Policies: []PolicyKind{
				PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
			},
		},
	}
}

// Lookup resolves a built-in suite by name.
func Lookup(name string) (Suite, error) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, nil
		}
	}
	return Suite{}, fmt.Errorf("%w: unknown suite %q", ErrBadSuite, name)
}
