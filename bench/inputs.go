package main

import (
	"fmt"
	"time"

	"tolerance"
	"tolerance/internal/fleet"
)

// scale fixes the size of every workload. "full" is the benchmark proper;
// "tiny" is the seconds-long smoke that bench_test.go runs so `go test ./...`
// stays fast. Nothing else in the benchmark branches on the scale name.
type scale struct {
	name string

	// fitSamples is M of the offline Ẑ fit (paper: 25 000).
	fitSamples int

	// grid-deep: the paper-grid axes plus a learned:cem column.
	deepAttack  []float64
	deepN1s     []int
	deepDeltaRs []int
	deepSeeds   int
	deepSteps   int
	learned     fleet.LearnedConfig

	// The wide, shallow suite shared by grid-durable, grid-replay and
	// grid-leased, so their outputs can be byte-compared.
	wideAttack  []float64
	wideCrash   []fleet.CrashProfile
	wideN1s     []int
	wideDeltaRs []int
	wideSeeds   int
	wideSteps   int

	// solve-cold problem axes (see solveProblems).
	dpAttack, dpEtas   []float64
	dpDeltaRs          []int
	statAttack         []float64
	statEtas           []float64
	lpSMax             []int
	lpEpsA             []float64
	lpF                []int
	learnedBudget      int // cem, de, spsa
	boBudget           int
	ppoIterations      int
	learnedSolveDeltaR int

	// passes is each workload's number of timed passes (and of the cold
	// set-ups that alternate with them). It is frozen, not derived from
	// -seconds, so that two runs compare medians over the same number of
	// samples; sized for a whole run of 12-25 s on two quiet cores.
	passes map[string]int
	// heartbeat is the coordinator keep-alive cadence (0 = the shipped 1 s
	// default). The tiny scale shortens it so the uncancelled worker drain
	// the traced run measures takes milliseconds, not seconds.
	heartbeat time.Duration
	// loopDiv divides the iteration counts of the per-layer timed loops.
	loopDiv int
}

func fullScale() scale {
	return scale{
		name:       "full",
		fitSamples: 25000,

		deepAttack:  []float64{0.05, 0.1},
		deepN1s:     []int{3, 6, 9},
		deepDeltaRs: []int{15, 25},
		deepSeeds:   160,
		deepSteps:   500,
		learned:     fleet.LearnedConfig{Budget: 120, Episodes: 25, Horizon: 100, Workers: 2},

		wideAttack: []float64{0.05, 0.08, 0.1, 0.15, 0.2, 0.3},
		wideCrash: []fleet.CrashProfile{
			{PC1: 1e-5, PC2: 1e-3}, // Table 8
			{PC1: 5e-3, PC2: 2e-2}, // examples/scada
		},
		wideN1s:     []int{3, 4, 5, 6, 7, 8, 9, 10},
		wideDeltaRs: []int{5, 10, 15, 20, 25, 30, 40, 50},
		wideSeeds:   8,
		wideSteps:   40,

		dpAttack:           []float64{0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4},
		dpEtas:             []float64{1, 2, 3, 6},
		dpDeltaRs:          []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100},
		statAttack:         []float64{0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4},
		statEtas:           []float64{2, 3, 4, 6},
		lpSMax:             []int{13, 24, 32, 48, 64, 80, 96, 112, 128},
		lpEpsA:             []float64{0.8, 0.85, 0.9, 0.95, 0.99},
		lpF:                []int{1, 2, 3, 4},
		learnedBudget:      100,
		boBudget:           50,
		ppoIterations:      2,
		learnedSolveDeltaR: 15,

		passes: map[string]int{
			"grid-deep": 7, "grid-durable": 9, "grid-replay": 15, "grid-leased": 7, "solve-cold": 7,
		},
		loopDiv: 1,
	}
}

func tinyScale() scale {
	return scale{
		name:       "tiny",
		fitSamples: 400,

		deepAttack:  []float64{0.1},
		deepN1s:     []int{3, 9},
		deepDeltaRs: []int{15},
		deepSeeds:   4,
		deepSteps:   40,
		learned:     fleet.LearnedConfig{Budget: 6, Episodes: 2, Horizon: 20, Workers: 2},

		wideAttack:  []float64{0.1, 0.2},
		wideCrash:   []fleet.CrashProfile{{PC1: 1e-5, PC2: 1e-3}},
		wideN1s:     []int{3, 6},
		wideDeltaRs: []int{5, 15},
		wideSeeds:   4,
		wideSteps:   20,

		dpAttack:           []float64{0.1, 0.2},
		dpEtas:             []float64{2},
		dpDeltaRs:          []int{5, 15},
		statAttack:         []float64{0.2},
		statEtas:           []float64{2},
		lpSMax:             []int{13, 24},
		lpEpsA:             []float64{0.9},
		lpF:                []int{1},
		learnedBudget:      4,
		boBudget:           4,
		ppoIterations:      1,
		learnedSolveDeltaR: 5,

		passes: map[string]int{
			"grid-deep": 1, "grid-durable": 1, "grid-replay": 1, "grid-leased": 1, "solve-cold": 1,
		},
		heartbeat: 20 * time.Millisecond,
		loopDiv:   200,
	}
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return fullScale(), nil
	case "tiny":
		return tinyScale(), nil
	}
	return scale{}, fmt.Errorf("unknown -scale %q (full | tiny)", name)
}

// The program under test receives its grids the way users hand them over: as
// versioned suite JSON. -seed becomes the suite master seed, from which every
// scenario, fit and training stream derives.

func (sc scale) deepSuiteJSON(seed int64) ([]byte, error) {
	learned := sc.learned
	return fleet.DumpSuite(fleet.Suite{
		Name:         "bench-deep",
		Description:  "paper-grid axes plus a learned:cem column",
		Seed:         seed,
		SeedsPerCell: sc.deepSeeds,
		Steps:        sc.deepSteps,
		FitSamples:   sc.fitSamples,
		AttackRates:  sc.deepAttack,
		N1s:          sc.deepN1s,
		DeltaRs:      sc.deepDeltaRs,
		Policies: []fleet.PolicyKind{
			fleet.PolicyTolerance, fleet.PolicyNoRecovery, fleet.PolicyPeriodic,
			fleet.PolicyPeriodicAdaptive, "learned:cem",
		},
		Learned: &learned,
	})
}

func (sc scale) wideSuiteJSON(seed int64) ([]byte, error) {
	return fleet.DumpSuite(fleet.Suite{
		Name:          "bench-wide",
		Description:   "many cells, few short scenarios each: solver, I/O and lease traffic outweigh emulation",
		Seed:          seed,
		SeedsPerCell:  sc.wideSeeds,
		Steps:         sc.wideSteps,
		FitSamples:    sc.fitSamples,
		AttackRates:   sc.wideAttack,
		CrashProfiles: sc.wideCrash,
		N1s:           sc.wideN1s,
		DeltaRs:       sc.wideDeltaRs,
		Policies: []fleet.PolicyKind{
			fleet.PolicyTolerance, fleet.PolicyNoRecovery, fleet.PolicyPeriodic,
			fleet.PolicyPeriodicAdaptive,
		},
	})
}

// Solver families of solve-cold, in list order.
const (
	familyDPFinite     = "dp_finite"
	familyDPStationary = "dp_stationary"
	familyLP           = "lp"
	familyLearned      = "learned"
)

var solveFamilies = []string{familyDPFinite, familyDPStationary, familyLP, familyLearned}

// solveItem is one control problem of the solve-cold list with the options
// it is solved under.
type solveItem struct {
	family  string
	solver  string // the family, or the learned method
	problem tolerance.Problem
	opts    []tolerance.Option
}

// solveProblems builds the frozen solve-cold list. The counts and budgets
// are sized so each family is 15-35 % of a pass (README.md has the
// measurement); -seed only sets the learned solvers' seeds, so the amount of
// work is the same for every seed.
//
// Left out because they fail today with "dp value iteration did not
// converge" (README.md lists them): stationary problems with pA <= 0.05,
// with eta <= 1.5 at pA <= 0.1, and with eta = 1 at any pA. The stationary
// sweep therefore starts at pA = 0.08 and eta = 2.
func (sc scale) solveProblems(seed int64) []solveItem {
	var items []solveItem
	model := func(pa, eta float64) tolerance.NodeModel {
		m := tolerance.DefaultNodeModel()
		m.PA, m.Eta = pa, eta
		return m
	}
	for _, pa := range sc.dpAttack {
		for _, eta := range sc.dpEtas {
			for _, dr := range sc.dpDeltaRs {
				items = append(items, solveItem{family: familyDPFinite, solver: familyDPFinite,
					problem: tolerance.RecoveryProblem{Model: model(pa, eta), DeltaR: dr}})
			}
		}
	}
	for _, pa := range sc.statAttack {
		for _, eta := range sc.statEtas {
			items = append(items, solveItem{family: familyDPStationary, solver: familyDPStationary,
				problem: tolerance.RecoveryProblem{Model: model(pa, eta), DeltaR: tolerance.InfiniteDeltaR}})
		}
	}
	for _, smax := range sc.lpSMax {
		for _, eps := range sc.lpEpsA {
			for _, f := range sc.lpF {
				items = append(items, solveItem{family: familyLP, solver: familyLP,
					problem: tolerance.ReplicationProblem{SMax: smax, F: f, EpsilonA: eps, Q: 0.95}})
			}
		}
	}
	learned := []struct {
		method string
		budget int
	}{
		{tolerance.OptimizerCEM, sc.learnedBudget},
		{tolerance.OptimizerDE, sc.learnedBudget},
		{tolerance.OptimizerSPSA, sc.learnedBudget},
		{tolerance.OptimizerBO, sc.boBudget},
		{tolerance.MethodPPO, sc.ppoIterations},
	}
	for i, l := range learned {
		items = append(items, solveItem{family: familyLearned, solver: l.method,
			problem: tolerance.RecoveryProblem{Model: tolerance.DefaultNodeModel(), DeltaR: sc.learnedSolveDeltaR},
			opts: []tolerance.Option{
				tolerance.WithMethod(l.method), tolerance.WithBudget(l.budget),
				tolerance.WithWorkers(engineWorkers), tolerance.WithSeed(seed*131 + int64(i) + 1),
			}})
	}
	return items
}
