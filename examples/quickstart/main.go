// Quickstart: solve both TOLERANCE control problems through the unified
// Solve facade, then evaluate TOLERANCE against the baselines on the
// emulated testbed through the built-in table7 suite.
//
//	go run ./examples/quickstart
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

func run() error {
	ctx := context.Background()
	model := tolerance.DefaultNodeModel()

	// Problem 1: when should a node recover? The default method is the
	// exact DP solve; WithMethod("cem") would learn the thresholds with
	// Algorithm 1 instead.
	recSol, err := tolerance.Solve(ctx, tolerance.RecoveryProblem{
		Model:  model,
		DeltaR: tolerance.InfiniteDeltaR,
	})
	if err != nil {
		return fmt.Errorf("solve recovery: %w", err)
	}
	rec := recSol.Recovery
	fmt.Printf("Problem 1 (optimal intrusion recovery, method=%s)\n", recSol.Method)
	fmt.Printf("  recovery threshold alpha* = %.3f\n", rec.Thresholds[0])
	fmt.Printf("  optimal average cost  J*  = %.4f\n\n", rec.ExpectedCost)

	// Problem 2: when should the system grow?
	repSol, err := tolerance.Solve(ctx, tolerance.ReplicationProblem{
		SMax: 13, F: 1, EpsilonA: 0.9, Q: 0.97,
	})
	if err != nil {
		return fmt.Errorf("solve replication: %w", err)
	}
	rep := repSol.Replication
	fmt.Printf("Problem 2 (optimal replication factor, smax=13, f=1, epsA=0.9)\n")
	fmt.Printf("  expected nodes = %.2f, availability = %.3f\n", rep.ExpectedNodes, rep.Availability)
	fmt.Printf("  pi(add | s):")
	for s, p := range rep.AddProbability {
		if p > 0.001 {
			fmt.Printf(" s=%d:%.2f", s, p)
		}
	}
	fmt.Printf("\n\n")

	// Evaluate TOLERANCE against the baselines: the built-in table7 suite
	// (the paper's Table 7 grid) at a reduced budget, one row group shown.
	fmt.Printf("Evaluation (table7 suite, 400 steps, 3 seeds; group N1=6, DeltaR=15)\n")
	report, err := tolerance.RunSuite(ctx, tolerance.SuiteByName("table7"),
		tolerance.WithSteps(400), tolerance.WithSeedsPerCell(3))
	if err != nil {
		return fmt.Errorf("run table7: %w", err)
	}
	fmt.Printf("  %-18s %8s %10s %8s\n", "strategy", "T(A)", "T(R)", "F(R)")
	for _, c := range report.Cells {
		if c.N1 != 6 || c.DeltaR != 15 {
			continue
		}
		fmt.Printf("  %-18s %8.3f %10.2f %8.4f\n",
			c.Strategy, c.Availability, c.TimeToRecovery, c.RecoveryFrequency)
	}
	return nil
}
