// Package baselines implements the control strategies TOLERANCE is compared
// against in §VIII-B:
//
//   - NO-RECOVERY: never recovers or adds nodes (RAMPART, SECURE-RING).
//   - PERIODIC: recovers each node every Delta_R steps, never adds nodes
//     (PBFT, VM-FIT, WORM-IT, PRRW, ... — the most common scheme).
//   - PERIODIC-ADAPTIVE: periodic recovery plus a heuristic add rule —
//     add a node when an observation reaches twice its mean (SITAR, ITSI,
//     ITUA approximation).
//   - TOLERANCE: the paper's feedback strategies (threshold recovery from
//     Problem 1 + the CMDP replication strategy from Problem 2).
package baselines

import (
	"errors"
	"math/rand"

	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// NodeContext is the per-node information available to a control policy at
// one time step.
type NodeContext struct {
	// Belief is the node controller's current compromise belief (eq. 4).
	Belief float64
	// Obs is the latest priority-weighted alert count.
	Obs int
	// WindowPos is the node's position in its BTR calendar window
	// (1..DeltaR-1); the forced position 0 is handled by the emulation.
	WindowPos int
	// DeltaR is the BTR bound (recovery.InfiniteDeltaR when unconstrained).
	DeltaR int
}

// SystemContext is the global information available to the replication
// policy at one time step.
type SystemContext struct {
	// HealthyEstimate is s_t = floor(sum_i (1 - b_i)) (eq. 8).
	HealthyEstimate int
	// AliveNodes is the current replication factor N_t.
	AliveNodes int
	// Observations are the latest alert counts of alive nodes.
	Observations []int
	// MeanObs is the historical mean alert count E[O_t].
	MeanObs float64
	// Rng drives randomized policies.
	Rng *rand.Rand
}

// Policy is a two-level control strategy: per-node recovery plus global
// replication.
type Policy interface {
	// UsesBTR reports whether the emulation should apply the forced
	// calendar recoveries of eq. (6b).
	UsesBTR() bool
	// NodeAction decides recovery for one node.
	NodeAction(ctx NodeContext) nodemodel.Action
	// AddNode decides whether to grow the system this step.
	AddNode(ctx SystemContext) bool
}

// NoRecovery is the NO-RECOVERY baseline.
type NoRecovery struct{}

// UsesBTR implements Policy.
func (NoRecovery) UsesBTR() bool { return false }

// NodeAction implements Policy.
func (NoRecovery) NodeAction(NodeContext) nodemodel.Action { return nodemodel.Wait }

// AddNode implements Policy.
func (NoRecovery) AddNode(SystemContext) bool { return false }

// Periodic is the PERIODIC baseline: recovery comes only from the forced
// calendar (every Delta_R steps); no replication control.
type Periodic struct{}

// UsesBTR implements Policy.
func (Periodic) UsesBTR() bool { return true }

// NodeAction implements Policy.
func (Periodic) NodeAction(NodeContext) nodemodel.Action { return nodemodel.Wait }

// AddNode implements Policy.
func (Periodic) AddNode(SystemContext) bool { return false }

// PeriodicAdaptive is the PERIODIC-ADAPTIVE baseline: periodic recovery
// plus "add a node when o_{i,t} >= 2 E[O_t]" (§VIII-B). Like the rule-based
// systems it approximates (SITAR, ITSI, ITUA), it replaces lost capacity up
// to a target size rather than growing without bound.
type PeriodicAdaptive struct {
	// TargetN caps additions: nodes are only added while fewer than
	// TargetN are alive. Zero disables the cap.
	TargetN int
}

// UsesBTR implements Policy.
func (PeriodicAdaptive) UsesBTR() bool { return true }

// NodeAction implements Policy.
func (PeriodicAdaptive) NodeAction(NodeContext) nodemodel.Action { return nodemodel.Wait }

// AddNode implements Policy.
func (p PeriodicAdaptive) AddNode(ctx SystemContext) bool {
	if p.TargetN > 0 && ctx.AliveNodes >= p.TargetN {
		return false
	}
	threshold := 2 * ctx.MeanObs
	if threshold <= 0 {
		return false
	}
	for _, o := range ctx.Observations {
		if float64(o) >= threshold {
			return true
		}
	}
	return false
}

// Tolerance is the paper's feedback strategy pair.
type Tolerance struct {
	// Recovery is the Problem 1 threshold strategy.
	Recovery *recovery.ThresholdStrategy
	// Replication is the Problem 2 solution; nil disables adding nodes.
	Replication *cmdp.Solution
}

// NewTolerance validates and builds the TOLERANCE policy.
func NewTolerance(rec *recovery.ThresholdStrategy, rep *cmdp.Solution) (*Tolerance, error) {
	if rec == nil {
		return nil, errors.New("baselines: nil recovery strategy")
	}
	return &Tolerance{Recovery: rec, Replication: rep}, nil
}

// UsesBTR implements Policy.
func (*Tolerance) UsesBTR() bool { return true }

// NodeAction implements Policy.
func (t *Tolerance) NodeAction(ctx NodeContext) nodemodel.Action {
	return t.Recovery.Action(ctx.Belief, ctx.WindowPos)
}

// AddNode implements Policy.
func (t *Tolerance) AddNode(ctx SystemContext) bool {
	if t.Replication == nil {
		return false
	}
	return t.Replication.Sample(ctx.Rng, ctx.HealthyEstimate) == 1
}
