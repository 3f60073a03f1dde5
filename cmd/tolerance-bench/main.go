// tolerance-bench regenerates the paper's tables and figures as text output.
//
//	tolerance-bench                     # all experiments, default budgets
//	tolerance-bench -experiment fig6a   # one experiment
//	tolerance-bench -full               # larger budgets (slower)
//
// Experiment IDs: fig4 fig5 fig6a fig6b table2 fig9 fig11 fig13 fig14 fig15
// fig16 fig18 table7. Each experiment's "(id in …)" wall-clock line goes to
// stderr, so the stdout of two builds can be compared byte for byte (table2
// and fig9 still print solve times).
//
// -metrics-addr serves the HTTP introspection endpoint (/metrics,
// /debug/vars, /debug/pprof/*) while experiments run — handy for profiling
// a long -full regeneration. Telemetry never writes to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tolerance"
	"tolerance/internal/cmdp"
	"tolerance/internal/emulation"
	"tolerance/internal/fleet"
	"tolerance/internal/ids"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/ppo"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id or 'all'")
	full := flag.Bool("full", false, "use larger budgets")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8417; empty = off)")
	flag.Parse()
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, telemetry.New())
		if err != nil {
			fmt.Fprintln(os.Stderr, "tolerance-bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	stopProfiles, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tolerance-bench:", err)
		os.Exit(1)
	}
	runErr := run(*experiment, *full)
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tolerance-bench:", runErr)
		os.Exit(1)
	}
}

type experimentFn func(full bool) error

func run(which string, full bool) error {
	experiments := []struct {
		id string
		fn experimentFn
	}{
		{"fig4", fig4}, {"fig5", fig5}, {"fig6a", fig6a}, {"fig6b", fig6b},
		{"table2", table2}, {"fig9", fig9}, {"fig11", fig11},
		{"fig13", fig13}, {"fig14", fig14}, {"fig15", fig15},
		{"fig16", fig16}, {"fig18", fig18}, {"table7", table7},
	}
	ran := false
	for _, e := range experiments {
		if which != "all" && which != e.id {
			continue
		}
		ran = true
		fmt.Printf("==== %s ====\n", e.id)
		start := time.Now()
		if err := e.fn(full); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", e.id, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

func fig4(bool) error {
	params := nodemodel.DefaultParams()
	params.PA = 0.01
	fmt.Println("V*_{t=4}(b) by the exact belief recursion, b = P[compromised]:")
	for i := 0; i <= 10; i++ {
		b := float64(i) / 10
		v, a := params.OptimalValue(b, 4)
		fmt.Printf("  b=%.1f  V*=%.4f  action=%s\n", b, v, a)
	}
	return nil
}

func fig5(bool) error {
	fmt.Println("P[compromised or crashed by t], no recoveries:")
	fmt.Printf("%6s", "t")
	pas := []float64{0.1, 0.05, 0.025, 0.01}
	for _, pa := range pas {
		fmt.Printf("  pA=%.3f", pa)
	}
	fmt.Println()
	curves := make([][]float64, len(pas))
	for i, pa := range pas {
		p := nodemodel.DefaultParams()
		p.PA = pa
		p.PU = 0
		curves[i] = p.FailureProbByTime(100)
	}
	for _, t := range []int{10, 20, 30, 40, 50, 70, 100} {
		fmt.Printf("%6d", t)
		for i := range pas {
			fmt.Printf("  %8.3f", curves[i][t])
		}
		fmt.Println()
	}
	return nil
}

func fig6a(bool) error {
	fmt.Println("MTTF E[T(f)] vs N1 (f=3, k=1):")
	fmt.Printf("%6s %12s %12s %12s\n", "N1", "pA=0.1", "pA=0.025", "pA=0.01")
	for _, n1 := range []int{10, 20, 30, 40, 60, 80, 100} {
		fmt.Printf("%6d", n1)
		for _, pa := range []float64{0.1, 0.025, 0.01} {
			q := (1 - pa) * (1 - 1e-5)
			mttf, err := tolerance.MTTF(n1, 3, 1, q)
			if err != nil {
				return err
			}
			fmt.Printf(" %12.1f", mttf)
		}
		fmt.Println()
	}
	return nil
}

func fig6b(bool) error {
	fmt.Println("reliability R(t) (f=3, k=1, pA=0.05):")
	q := (1 - 0.05) * (1 - 1e-5)
	ns := []int{25, 50, 100, 200}
	curves := map[int][]float64{}
	for _, n1 := range ns {
		r, err := tolerance.Reliability(n1, 3, 1, 100, q)
		if err != nil {
			return err
		}
		curves[n1] = r
	}
	fmt.Printf("%6s %8s %8s %8s %8s\n", "t", "N1=25", "N1=50", "N1=100", "N1=200")
	for _, t := range []int{10, 20, 40, 60, 80, 100} {
		fmt.Printf("%6d %8.3f %8.3f %8.3f %8.3f\n",
			t, curves[25][t], curves[50][t], curves[100][t], curves[200][t])
	}
	return nil
}

func table2(full bool) error {
	params := nodemodel.DefaultParams()
	budget := 200
	episodes := 30
	if full {
		budget, episodes = 1000, 50
	}
	deltas := []int{5, 15, 25, recovery.InfiniteDeltaR}
	fmt.Printf("%-8s", "method")
	for _, d := range deltas {
		if d == recovery.InfiniteDeltaR {
			fmt.Printf(" | %18s", "deltaR=inf")
		} else {
			fmt.Printf(" | %18s", fmt.Sprintf("deltaR=%d", d))
		}
	}
	fmt.Println()
	// Exact DP reference first: the finite windows are read from one
	// ladder of induction stages, climbed once to the deepest.
	ladder, err := recovery.NewLadder(params, 300)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "optimal")
	for _, d := range deltas {
		var sol *recovery.DPSolution
		if d == recovery.InfiniteDeltaR {
			sol, err = recovery.SolveDP(params, recovery.DPConfig{DeltaR: d, GridSize: 300})
		} else {
			sol, err = ladder.Window(d)
		}
		if err != nil {
			return err
		}
		fmt.Printf(" | %11s %6.3f", "-", sol.AvgCost)
	}
	fmt.Println()
	optimizers := []opt.Optimizer{
		opt.CEM{Population: 30}, opt.DE{}, opt.BO{InitialSamples: 10}, opt.SPSA{},
	}
	for _, po := range optimizers {
		err := table2Row(params, po.Name(), deltas, func(d int) (recovery.Strategy, error) {
			res, err := recovery.Algorithm1(context.Background(), params, recovery.Algorithm1Config{
				DeltaR: d, Optimizer: po, Budget: budget,
				Episodes: episodes, Horizon: 150, Seed: 1,
			})
			if err != nil {
				return nil, err
			}
			return res.Strategy, nil
		})
		if err != nil {
			return err
		}
	}
	// PPO, the learned baseline: zero iterations keep ppo's default.
	iterations := 0
	if full {
		iterations = 100
	}
	return table2Row(params, "ppo", deltas, func(d int) (recovery.Strategy, error) {
		res, err := ppo.Train(context.Background(), params, ppo.Config{
			DeltaR: d, Iterations: iterations, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		return res.Policy, nil
	})
}

// table2Row prints one learned method's Table 2 row: for each ΔR, the time
// to train the strategy and its cost re-evaluated on fresh randomness.
func table2Row(params nodemodel.Params, method string, deltas []int, train func(deltaR int) (recovery.Strategy, error)) error {
	fmt.Printf("%-8s", method)
	for _, d := range deltas {
		start := time.Now()
		strategy, err := train(d)
		if err != nil {
			return err
		}
		// Re-evaluate with fresh randomness for an unbiased cost.
		rng := rand.New(rand.NewSource(99))
		m, err := recovery.Evaluate(rng, params, strategy, recovery.SimConfig{
			Episodes: 100, Horizon: 200, DeltaR: d,
		})
		if err != nil {
			return err
		}
		fmt.Printf(" | %10.1fs %6.3f", time.Since(start).Seconds(), m.AvgCost)
	}
	fmt.Println()
	return nil
}

func fig9(full bool) error {
	fmt.Println("Algorithm 2 solve time for Problem 2 vs smax:")
	sizes := []int{4, 8, 16, 32, 64, 128, 256}
	if full {
		sizes = append(sizes, 512, 1024, 2048)
	}
	for _, smax := range sizes {
		model, err := cmdp.NewBinomialModel(smax, 3, 0.9, 0.95, 0)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := cmdp.Solve(model); err != nil {
			return err
		}
		fmt.Printf("  smax=%5d: %v\n", smax, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func fig11(bool) error {
	catalog, err := emulation.Catalog()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	fmt.Println("empirical Ẑ per container (M = 25,000): mean alerts H vs C, DKL:")
	for _, c := range catalog {
		fit, err := ids.Fit(rng, c.Profile, 25000)
		if err != nil {
			return err
		}
		fmt.Printf("  %-34s  E[O|H]=%5.1f  E[O|C]=%5.1f  DKL=%.3f\n",
			c.Profile.Name, fit.Healthy.Mean(), fit.Compromised.Mean(), c.Profile.Divergence())
	}
	return nil
}

func fig13(bool) error {
	ctx := context.Background()
	repSol, err := tolerance.Solve(ctx, tolerance.ReplicationProblem{SMax: 13, F: 1, EpsilonA: 0.9, Q: 0.97})
	if err != nil {
		return err
	}
	fmt.Println("replication strategy pi(add|s):")
	for s, p := range repSol.Replication.AddProbability {
		fmt.Printf("  s=%2d: %.3f\n", s, p)
	}
	recSol, err := tolerance.Solve(ctx, tolerance.RecoveryProblem{
		Model: tolerance.DefaultNodeModel(), DeltaR: tolerance.InfiniteDeltaR,
	})
	if err != nil {
		return err
	}
	rec := recSol.Recovery
	fmt.Printf("recovery threshold alpha* = %.3f (J* = %.4f)\n", rec.Thresholds[0], rec.ExpectedCost)
	return nil
}

func fig14(bool) error {
	fmt.Println("optimal cost J* vs detector quality DKL(Z_H || Z_C):")
	pts, err := tolerance.DetectorSensitivity(tolerance.DefaultNodeModel(),
		[]float64{0.25, 0.4, 0.55, 0.7, 0.85, 1.0})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  DKL=%.3f  J*=%.4f\n", p[0], p[1])
	}
	return nil
}

func fig15(bool) error {
	params := nodemodel.DefaultParams()
	sol, err := recovery.SolveDP(params, recovery.DPConfig{DeltaR: 100, GridSize: 300})
	if err != nil {
		return err
	}
	fmt.Println("threshold curve alpha*_t within a Delta_R = 100 window:")
	for _, k := range []int{1, 20, 40, 60, 80, 90, 95, 99} {
		fmt.Printf("  t=%3d: alpha* = %.3f\n", k, sol.Thresholds[k-1])
	}
	return nil
}

func fig16(bool) error {
	model, err := cmdp.NewBinomialModel(20, 3, 0.9, 0.9, 0)
	if err != nil {
		return err
	}
	fmt.Println("fS(s' | s, a=0) rows (binomial survival model, q=0.9):")
	for _, s := range []int{0, 10, 20} {
		fmt.Printf("  s=%2d:", s)
		for s2 := 0; s2 <= 20; s2 += 2 {
			fmt.Printf(" %5.3f", model.FS[0][s][s2])
		}
		fmt.Println()
	}
	return nil
}

func fig18(bool) error {
	rng := rand.New(rand.NewSource(2))
	ranks, err := ids.RankMetrics(rng, ids.DefaultMetricProfiles(), 25000)
	if err != nil {
		return err
	}
	fmt.Println("metric ranking by empirical KL divergence:")
	for _, r := range ranks {
		fmt.Printf("  %-32s %8.4f\n", r.Metric, r.Divergence)
	}
	return nil
}

// table7 runs the table7 suite once — at its own budget with -full, else
// 600 steps and 5 seeds per cell — and prints its nine (N1, ΔR) groups.
func table7(full bool) error {
	suite, err := fleet.Lookup("table7")
	if err != nil {
		return err
	}
	if !full {
		suite.Steps, suite.SeedsPerCell = 600, 5
	}
	res, err := fleet.Run(context.Background(), suite, fleet.Config{})
	if err != nil {
		return err
	}
	// Cells expand with the policy innermost, so each (N1, ΔR) group is a
	// run of consecutive cells.
	for i, c := range res.Cells {
		if i == 0 || c.Cell.N1 != res.Cells[i-1].Cell.N1 || c.Cell.DeltaR != res.Cells[i-1].Cell.DeltaR {
			label := fmt.Sprintf("%d", c.Cell.DeltaR)
			if c.Cell.DeltaR == recovery.InfiniteDeltaR {
				label = "inf"
			}
			fmt.Printf("N1=%d deltaR=%s:\n", c.Cell.N1, label)
			fmt.Printf("  %-18s %8s %12s %10s\n", "strategy", "T(A)", "T(R)", "F(R)")
		}
		a := c.Aggregate
		fmt.Printf("  %-18s %4.2f±%.2f %7.1f±%5.1f %5.3f±%.3f\n",
			c.Cell.Policy, a.Availability.Mean, a.Availability.CI,
			a.TimeToRecovery.Mean, a.TimeToRecovery.CI,
			a.RecoveryFrequency.Mean, a.RecoveryFrequency.CI)
	}
	return nil
}
