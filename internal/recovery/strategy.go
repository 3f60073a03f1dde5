// Package recovery implements Problem 1 of the paper (optimal intrusion
// recovery): threshold recovery strategies (Theorem 1), the bounded-time-to-
// recovery (BTR) constraint (eq. 6b), Algorithm 1 (parametric optimization of
// threshold strategies), an exact average-cost dynamic-programming solver
// used as the optimal reference, and the Monte-Carlo evaluator that measures
// J_i (eq. 5), T(R) and F(R).
package recovery

import (
	"errors"
	"fmt"

	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
)

// InfiniteDeltaR encodes Delta_R = infinity (no BTR constraint).
const InfiniteDeltaR = 0

// ErrBadStrategy is returned for malformed strategy parameters.
var ErrBadStrategy = errors.New("recovery: bad strategy")

// Strategy decides the recovery action from the current belief and the BTR
// window position (eq. 6b forces recovery at the fixed calendar times
// k*Delta_R; windowPos is t mod Delta_R, or t itself when Delta_R = inf).
type Strategy interface {
	// Action returns Wait or Recover for window position windowPos >= 1;
	// the forced recoveries at windowPos = 0 are applied by the caller.
	Action(belief float64, windowPos int) nodemodel.Action
}

// ThresholdStrategy is the parametric strategy of Algorithm 1 (line 6):
// recover iff b_t >= theta_k with k = min(windowPos, d), one threshold per
// window position, collapsing to a single stationary threshold when
// Delta_R = infinity (Corollary 1).
type ThresholdStrategy struct {
	// Thresholds holds theta_1..theta_d in [0, 1].
	Thresholds []float64
	// DeltaR is the BTR bound; InfiniteDeltaR means unconstrained. The
	// forced calendar recoveries are applied by the simulator and
	// controllers, not by the strategy itself.
	DeltaR int
}

// NewThresholdStrategy validates and builds a threshold strategy. For a
// finite deltaR the parameter dimension is deltaR-1 (one threshold per
// window position before the forced recovery); for InfiniteDeltaR it is 1.
func NewThresholdStrategy(thresholds []float64, deltaR int) (*ThresholdStrategy, error) {
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("%w: no thresholds", ErrBadStrategy)
	}
	for i, th := range thresholds {
		if th < 0 || th > 1 {
			return nil, fmt.Errorf("%w: threshold[%d] = %v", ErrBadStrategy, i, th)
		}
	}
	if deltaR < 0 {
		return nil, fmt.Errorf("%w: deltaR = %d", ErrBadStrategy, deltaR)
	}
	if deltaR != InfiniteDeltaR && len(thresholds) != ThresholdDim(deltaR) {
		return nil, fmt.Errorf("%w: %d thresholds for deltaR %d, want %d",
			ErrBadStrategy, len(thresholds), deltaR, ThresholdDim(deltaR))
	}
	cp := make([]float64, len(thresholds))
	copy(cp, thresholds)
	return &ThresholdStrategy{Thresholds: cp, DeltaR: deltaR}, nil
}

// ThresholdDim returns the parameter dimension d of Algorithm 1 (line 4):
// deltaR-1 for finite deltaR, else 1.
func ThresholdDim(deltaR int) int {
	if deltaR == InfiniteDeltaR {
		return 1
	}
	if deltaR < 2 {
		return 1
	}
	return deltaR - 1
}

// Action implements Strategy.
func (s *ThresholdStrategy) Action(belief float64, windowPos int) nodemodel.Action {
	if belief >= s.Threshold(windowPos) {
		return nodemodel.Recover
	}
	return nodemodel.Wait
}

// Fingerprint canonicalizes the strategy for cache keys: DeltaR and every
// threshold, bit for bit.
func (s *ThresholdStrategy) Fingerprint() string {
	return dist.NewDigest().Float(float64(s.DeltaR)).Floats(s.Thresholds).String()
}

// Threshold returns the threshold used at the given window position.
func (s *ThresholdStrategy) Threshold(windowPos int) float64 {
	k := windowPos
	if k < 1 {
		k = 1
	}
	if k > len(s.Thresholds) {
		k = len(s.Thresholds)
	}
	return s.Thresholds[k-1]
}

// NeverRecover is the NO-RECOVERY baseline as a Strategy.
//
//tolerance:testonly reference strategy for recovery's, cmdp's and fleet's tests
type NeverRecover struct{}

// Action implements Strategy.
func (NeverRecover) Action(float64, int) nodemodel.Action { return nodemodel.Wait }

// AlwaysRecover recovers every step; useful as a cost upper bound in tests.
//
//tolerance:testonly reference strategy for recovery's, cmdp's and fleet's tests
type AlwaysRecover struct{}

// Action implements Strategy.
func (AlwaysRecover) Action(float64, int) nodemodel.Action { return nodemodel.Recover }

// PeriodicStrategy recovers at fixed calendar times (every Period steps)
// regardless of the belief — the PERIODIC baseline of §VIII-B restricted to
// a single node.
//
//tolerance:testonly reference strategy for recovery's, cmdp's and fleet's tests
type PeriodicStrategy struct {
	// Period between recoveries; <= 0 never recovers.
	Period int
}

// Action implements Strategy.
func (s PeriodicStrategy) Action(_ float64, windowPos int) nodemodel.Action {
	if s.Period > 0 && windowPos%s.Period == 0 {
		return nodemodel.Recover
	}
	return nodemodel.Wait
}
