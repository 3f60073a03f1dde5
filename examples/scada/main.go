// SCADA scenario: an intrusion-tolerant power-grid control service (the
// paper's motivating safety-critical use case, §I) with frequent node
// crashes — the regime where adaptive replication matters most
// (observation (iii) of §VIII-D).
//
//	go run ./examples/scada
package main

import (
	"context"
	"fmt"
	"log"

	"tolerance"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// scadaSuite is one crash-heavy grid group (field deployments on
// substations): TOLERANCE with and without adaptive replication, a learned
// competitor — Algorithm 1 (CEM) trains thresholds for this exact model —
// and the PERIODIC baseline.
const scadaSuite = `{
	"version": 1,
	"name": "scada",
	"seed": 1,
	"seedsPerCell": 5,
	"steps": 800,
	"epsilonA": 0.95,
	"attackRates": [0.08],
	"crashProfiles": [{"pc1": 5e-3, "pc2": 2e-2}],
	"n1s": [9],
	"deltaRs": [25],
	"policies": ["TOLERANCE", "TOLERANCE-STATIC", "learned:cem", "PERIODIC"],
	"learned": {"budget": 60, "episodes": 10, "horizon": 100}
}`

// staticReplication is TOLERANCE's recovery half alone: the exact
// Theorem 1 thresholds for the scenario's model, and no node is ever added.
// The zero value is the registered strategy; Policy returns one holding the
// solved thresholds.
type staticReplication struct{ rec *tolerance.RecoveryStrategy }

func (staticReplication) Name() string { return "TOLERANCE-STATIC" }

func (staticReplication) Describe() string {
	return "Theorem 1 DP recovery thresholds, static replication (never adds nodes)"
}

func (staticReplication) Fingerprint(spec tolerance.ScenarioSpec) string {
	return fmt.Sprintf("%+v|dr=%d", spec.Model, spec.DeltaR)
}

func (staticReplication) Policy(ctx context.Context, spec tolerance.ScenarioSpec) (tolerance.Policy, error) {
	sol, err := tolerance.Solve(ctx, tolerance.RecoveryProblem{Model: spec.Model, DeltaR: spec.DeltaR})
	if err != nil {
		return nil, err
	}
	return staticReplication{sol.Recovery}, nil
}

func (staticReplication) UsesBTR() bool                      { return true }
func (staticReplication) AddNode(tolerance.SystemState) bool { return false }

func (p staticReplication) Recover(s tolerance.NodeState) bool {
	return p.rec.ShouldRecover(s.Belief, s.WindowPos)
}

func run() error {
	ctx := context.Background()
	// Harsh environment: higher crash rates than the default model.
	model := tolerance.DefaultNodeModel()
	model.PA = 0.08
	model.PC1 = 5e-3 // frequent hardware crashes
	model.PC2 = 2e-2

	fmt.Println("SCADA scenario: N1 = 9, f = 2, k = 1, crash-heavy environment")

	sol, err := tolerance.Solve(ctx, tolerance.RecoveryProblem{Model: model, DeltaR: tolerance.InfiniteDeltaR})
	if err != nil {
		return err
	}
	rec := sol.Recovery
	fmt.Printf("recovery threshold alpha* = %.3f (J* = %.4f)\n\n", rec.Thresholds[0], rec.ExpectedCost)

	if err := tolerance.RegisterStrategy(staticReplication{}); err != nil {
		return err
	}
	report, err := tolerance.RunSuite(ctx, tolerance.SuiteFromJSON([]byte(scadaSuite)))
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %8s %10s %10s %9s %9s\n", "strategy", "T(A)", "T(A,quorum)", "T(R)", "F(R)", "avg N")
	for _, c := range report.Cells {
		fmt.Printf("%-28s %8.3f %10.3f %10.2f %9.4f %9.2f\n", c.Strategy,
			c.Availability, c.QuorumAvailability,
			c.TimeToRecovery, c.RecoveryFrequency, c.AvgNodes)
	}
	fmt.Println("\nWith frequent crashes, the adaptive replication strategy keeps the")
	fmt.Println("replication factor up while the static variant shrinks over time.")

	// MTTF analytics (Fig 6) for capacity planning.
	fmt.Println("\nMTTF without recovery (f=2, k=1):")
	for _, n1 := range []int{7, 9, 11, 13} {
		mttf, err := tolerance.MTTF(n1, 2, 1, (1-model.PA)*(1-model.PC1))
		if err != nil {
			return err
		}
		fmt.Printf("  N1 = %2d: %.1f steps\n", n1, mttf)
	}
	return nil
}
