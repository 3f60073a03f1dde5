// Package tolerance is the public API of the TOLERANCE reproduction — the
// two-level feedback control architecture for intrusion-tolerant systems of
// Hammar & Stadler, "Intrusion Tolerance for Networked Systems through
// Two-Level Feedback Control" (DSN 2024).
//
// # The v2 API
//
// The package is organized around three ideas:
//
//   - Strategy: every controller the paper evaluates — the exact Theorem 1
//     thresholds, the Algorithm 1 learned policies (CEM, DE, BO, SPSA),
//     PPO, Algorithm 2 replication, and the §VIII-B baselines — is a
//     registered implementation of one Strategy interface. Strategies()
//     lists the registry; RegisterStrategy adds custom strategies, whose
//     names become valid policy kinds in every suite and grid.
//   - Solve(ctx, Problem, ...Option): one context-aware entry point for
//     both control problems. RecoveryProblem selects Problem 1 (exact DP
//     by default, learned methods via WithMethod); ReplicationProblem
//     selects Problem 2's occupancy-measure LP.
//   - RunSuite(ctx, SuiteRef, ...Option): the scenario-fleet harness. A
//     suite — built-in (SuiteByName), a JSON file (SuiteFromFile), or an
//     in-memory document (SuiteFromJSON) — expands to a grid of emulation
//     scenarios executed on a worker pool with deterministic seeding.
//     Per-scenario records stream to WithRecordHandler consumers (or
//     through the StreamSuite iterator) in index order while the run is in
//     flight; cancelling ctx stops the pool promptly, leaving any
//     checkpoint written from the stream valid for resumption.
//
// The §VIII Table 7 comparison is the built-in "table7" suite:
// RunSuite(ctx, SuiteByName("table7")) evaluates TOLERANCE and the three
// §VIII-B baselines over N1 x ΔR on the same engine as every other grid.
// Analytic helpers round out the facade: MTTF and Reliability for the Fig 6
// analytics, DetectorSensitivity for the Fig 14 detector-quality sweep. All
// facade validation failures wrap ErrBadInput.
//
// Lower-level building blocks (the MinBFT implementation, the
// POMDP solvers, the emulation, the fleet engine) live under internal/ and
// are exercised by the examples and the benchmark harness.
package tolerance

import (
	"errors"
	"fmt"

	"tolerance/internal/cmdp"
	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// InfiniteDeltaR disables the bounded-time-to-recovery constraint.
const InfiniteDeltaR = recovery.InfiniteDeltaR

// ErrBadInput is returned (wrapped) for every invalid API input; test with
// errors.Is.
var ErrBadInput = errors.New("tolerance: bad input")

// NodeModel holds the per-node model parameters of eq. (2)-(5).
type NodeModel struct {
	// PA is the per-step compromise probability.
	PA float64
	// PC1 and PC2 are the crash probabilities in the healthy and
	// compromised states.
	PC1, PC2 float64
	// PU is the per-step software-update probability.
	PU float64
	// Eta is the cost weight (eq. 5).
	Eta float64
}

// DefaultNodeModel returns the paper's Table 8 evaluation parameters.
func DefaultNodeModel() NodeModel {
	return NodeModel{PA: 0.1, PC1: 1e-5, PC2: 1e-3, PU: 0.02, Eta: 2}
}

// toParams converts to the internal representation with the Table 8
// Beta-Binomial observation model.
func (m NodeModel) toParams() nodemodel.Params {
	p := nodemodel.DefaultParams()
	p.PA, p.PC1, p.PC2, p.PU, p.Eta = m.PA, m.PC1, m.PC2, m.PU, m.Eta
	return p
}

// MTTF returns the mean time to failure of a system with n1 initial nodes,
// tolerance threshold f, recovery allowance k, and per-step node survival
// probability q, with no recoveries (Fig 6a).
func MTTF(n1, f, k int, q float64) (float64, error) {
	if n1 < 1 || f < 0 || k < 0 || q <= 0 || q > 1 {
		return 0, fmt.Errorf("%w: MTTF(n1=%d, f=%d, k=%d, q=%v)", ErrBadInput, n1, f, k, q)
	}
	return cmdp.MTTF(n1, f, k, q)
}

// Reliability returns R(t) for t = 0..horizon (Fig 6b).
func Reliability(n1, f, k, horizon int, q float64) ([]float64, error) {
	if n1 < 1 || f < 0 || k < 0 || horizon < 0 || q <= 0 || q > 1 {
		return nil, fmt.Errorf("%w: Reliability(n1=%d, f=%d, k=%d, horizon=%d, q=%v)",
			ErrBadInput, n1, f, k, horizon, q)
	}
	return cmdp.Reliability(n1, f, k, horizon, q)
}

// DetectorSensitivity evaluates J* as a function of detector quality
// (Fig 14): it scales the separation between Z(.|H) and Z(.|C) and solves
// Problem 1 for each setting, returning (divergence, optimal cost) pairs.
func DetectorSensitivity(m NodeModel, separations []float64) ([][2]float64, error) {
	out := make([][2]float64, 0, len(separations))
	for _, sep := range separations {
		if sep <= 0 {
			return nil, fmt.Errorf("%w: separation %v", ErrBadInput, sep)
		}
		p := m.toParams()
		// Interpolate the compromised shape toward the healthy one as the
		// separation shrinks: alphaC = 0.7 + sep*(1 - 0.7) etc.
		alphaC := 0.7 + sep*(1.0-0.7)
		betaC := 3 + sep*(0.7-3)
		zc, err := dist.NewBetaBinomial(10, alphaC, betaC)
		if err != nil {
			return nil, err
		}
		p.ZCompromised = zc.Categorical()
		sol, err := recovery.SolveDP(p, recovery.DPConfig{DeltaR: InfiniteDeltaR, GridSize: 200})
		if err != nil {
			return nil, err
		}
		div := dist.KLSmoothed(p.ZHealthy, p.ZCompromised, 1e-9)
		out = append(out, [2]float64{div, sol.AvgCost})
	}
	return out, nil
}
