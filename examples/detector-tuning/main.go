// Detector tuning: reproduce the sensitivity analysis of Fig 14 — how the
// optimal recovery cost depends on the quality of the intrusion detection
// model, and how estimation error (model mismatch) degrades it.
//
//	go run ./examples/detector-tuning
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"tolerance"
	"tolerance/internal/dist"
	"tolerance/internal/ids"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("Fig 14 (left): optimal cost J* vs detector quality DKL(Z_H || Z_C)")
	seps := []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1.0}
	pts, err := tolerance.DetectorSensitivity(tolerance.DefaultNodeModel(), seps)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s  %s\n", "DKL", "J*", "")
	maxJ := 0.0
	for _, p := range pts {
		if p[1] > maxJ {
			maxJ = p[1]
		}
	}
	for _, p := range pts {
		bar := strings.Repeat("#", int(p[1]/maxJ*40))
		fmt.Printf("%10.3f %10.4f  %s\n", p[0], p[1], bar)
	}
	// Anchor: separation 1.0 is the unscaled Table 8 detector, so the last
	// point closely tracks a direct Problem 1 solve of the default model
	// (the sweep uses a coarser belief grid, hence the small gap).
	base, err := tolerance.Solve(context.Background(), tolerance.RecoveryProblem{
		Model: tolerance.DefaultNodeModel(), DeltaR: tolerance.InfiniteDeltaR,
	})
	if err != nil {
		return err
	}
	fmt.Printf("(direct solve of the default model: J* = %.4f)\n", base.Recovery.ExpectedCost)

	fmt.Println("\nFig 14 (right): model mismatch DKL(Z_C || Ẑ_C) vs sample budget M")
	profile, err := ids.NewBetaBinomialProfile("demo", 0.8, 5, 3, 1.2)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	fmt.Printf("%10s %14s\n", "M", "mismatch")
	for _, m := range []int{50, 200, 1000, 5000, 25000} {
		fit, err := ids.Fit(rng, profile, m)
		if err != nil {
			return err
		}
		fmt.Printf("%10d %14.5f\n", m, dist.KLSmoothed(profile.Intrusion, fit.Compromised, 1e-9))
	}

	fmt.Println("\nFig 18: metric ranking by empirical KL divergence")
	ranks, err := ids.RankMetrics(rng, ids.DefaultMetricProfiles(), 25000)
	if err != nil {
		return err
	}
	for _, r := range ranks {
		fmt.Printf("%-32s %8.4f\n", r.Metric, r.Divergence)
	}
	return nil
}
