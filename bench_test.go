package tolerance

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md maps each to its package). Each
// benchmark regenerates the corresponding artifact with a budget sized for
// `go test -bench`; cmd/tolerance-bench prints the full rows/series and
// supports larger budgets.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tolerance/internal/cmdp"
	"tolerance/internal/dist"
	"tolerance/internal/emulation"
	"tolerance/internal/fleet"
	"tolerance/internal/ids"
	"tolerance/internal/minbft"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/ppo"
	"tolerance/internal/recovery"
	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// BenchmarkFig04ValueFunction evaluates the node problem's optimal value
// function V*_4 by the exact belief recursion at Fig 4's eleven beliefs.
func BenchmarkFig04ValueFunction(b *testing.B) {
	params := nodemodel.DefaultParams()
	params.PA = 0.01 // Fig 4 configuration (App. E)
	for i := 0; i < b.N; i++ {
		for k := 0; k <= 10; k++ {
			if v, _ := params.OptimalValue(float64(k)/10, 4); v <= 0 {
				b.Fatalf("V*(%v) = %v, want > 0", float64(k)/10, v)
			}
		}
	}
}

// BenchmarkFig05CompromiseProb evaluates P[compromised or crashed by t]
// without recoveries for the four pA values of Fig 5.
func BenchmarkFig05CompromiseProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pa := range []float64{0.1, 0.05, 0.025, 0.01} {
			p := nodemodel.DefaultParams()
			p.PA = pa
			p.PU = 0
			curve := p.FailureProbByTime(100)
			if curve[100] <= curve[1] {
				b.Fatal("curve not increasing")
			}
		}
	}
}

// BenchmarkFig06aMTTF computes the mean-time-to-failure sweep of Fig 6a.
func BenchmarkFig06aMTTF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pa := range []float64{0.1, 0.025, 0.01} {
			q := (1 - pa) * (1 - 1e-5)
			for _, n1 := range []int{10, 20, 40, 80} {
				if _, err := cmdp.MTTF(n1, 3, 1, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig06bReliability computes the reliability curves of Fig 6b.
func BenchmarkFig06bReliability(b *testing.B) {
	q := (1 - 0.05) * (1 - 1e-5)
	for i := 0; i < b.N; i++ {
		for _, n1 := range []int{25, 50, 100} {
			if _, err := cmdp.Reliability(n1, 3, 1, 100, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Solvers runs Algorithm 1 with each parametric optimizer on
// Problem 1 (reduced budget; Table 2 / Figs 7-8 shape: CEM/DE/BO near the
// DP optimum).
func BenchmarkTable2Solvers(b *testing.B) {
	params := nodemodel.DefaultParams()
	optimizers := []opt.Optimizer{opt.CEM{Population: 30}, opt.DE{}, opt.BO{InitialSamples: 10}, opt.SPSA{}}
	for _, po := range optimizers {
		po := po
		b.Run(po.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := recovery.Algorithm1(context.Background(), params, recovery.Algorithm1Config{
					DeltaR:    recovery.InfiniteDeltaR,
					Optimizer: po,
					Budget:    120,
					Episodes:  20,
					Horizon:   120,
					Seed:      int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("ppo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := ppo.Train(context.Background(), params, ppo.Config{
				DeltaR:            recovery.InfiniteDeltaR,
				Iterations:        5,
				StepsPerIteration: 256,
				Horizon:           120,
				Hidden:            16,
				Layers:            2,
				Seed:              int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig08DPHorizon measures how the exact solve time grows with
// Delta_R (the Fig 8 trend: the DP's cost increases with the horizon).
func BenchmarkFig08DPHorizon(b *testing.B) {
	params := nodemodel.DefaultParams()
	for _, deltaR := range []int{5, 15, 25} {
		deltaR := deltaR
		b.Run(fmt.Sprintf("deltaR=%d", deltaR), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recovery.SolveDP(params, recovery.DPConfig{DeltaR: deltaR, GridSize: 300}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveStationary measures the Delta_R = infinity solve: a
// safeguarded regula falsi on the average cost around a double-buffered,
// warm-started optimal-stopping value iteration (the companion to
// BenchmarkFig08DPHorizon's windowed solves).
func BenchmarkSolveStationary(b *testing.B) {
	params := nodemodel.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := recovery.SolveDP(params, recovery.DPConfig{
			DeltaR: recovery.InfiniteDeltaR, GridSize: 300})
		if err != nil {
			b.Fatal(err)
		}
		if len(sol.Thresholds) != 1 {
			b.Fatal("stationary solve should yield one threshold")
		}
	}
}

// BenchmarkFig09LPSolveTime solves Problem 2's LP for growing state spaces
// (Fig 9 sweeps smax to 2048; the default bench covers the polynomial
// growth region, cmd/tolerance-bench -full goes further).
func BenchmarkFig09LPSolveTime(b *testing.B) {
	for _, smax := range []int{4, 8, 16, 32, 64, 128} {
		smax := smax
		b.Run(fmt.Sprintf("smax=%d", smax), func(b *testing.B) {
			model, err := cmdp.NewBinomialModel(smax, 3, 0.9, 0.95, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cmdp.Solve(model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10MinBFTThroughput measures request throughput of the MinBFT
// implementation for growing replica groups (Fig 10), over loopback TCP as
// the cluster backend deploys them: member and client addresses are the
// endpoints' listen addresses, because replicas reply to the request's
// client id.
func BenchmarkFig10MinBFTThroughput(b *testing.B) {
	key := []byte("bench-minbft-key-32-bytes-long!!")
	listen := func(b *testing.B) *transport.TCPEndpoint {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = ep.Close() })
		return ep
	}
	for _, n := range []int{3, 5, 7, 10} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			verifier, _ := usig.NewHMACVerifier(key)
			registry := replica.NewRegistry()
			eps := make([]*transport.TCPEndpoint, n)
			members := make([]string, n)
			for i := range members {
				eps[i] = listen(b)
				members[i] = eps[i].Addr()
			}
			for i, id := range members {
				u, _ := usig.NewHMAC(id, key)
				r, err := minbft.NewReplica(minbft.Config{
					ID: id, Members: members, Endpoint: eps[i], USIG: u,
					Verifier: verifier, Registry: registry,
					Store: replica.NewKVStore(),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer r.Stop()
			}
			ep := listen(b)
			signer, _ := replica.NewSigner(ep.Addr())
			_ = registry.Register(ep.Addr(), signer.PublicKey())
			f := (n - 1) / 2
			client, err := minbft.NewClient(signer, ep, members, f)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Submit(replica.Op{
					Type: replica.OpWrite, Key: "k", Value: "v",
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkFig11EmpiricalZ fits the observation models of all ten
// containers with the paper's M = 25,000 samples (Fig 11).
func BenchmarkFig11EmpiricalZ(b *testing.B) {
	catalog, err := emulation.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range catalog {
			if _, err := ids.Fit(rng, c.Profile, 25000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable7Evaluation runs the table7 suite (every N1 x ΔR group,
// all four strategies) at a reduced budget on the emulated testbed.
func BenchmarkTable7Evaluation(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		report, err := RunSuite(ctx, SuiteByName("table7"), WithSteps(300), WithSeedsPerCell(3))
		if err != nil {
			b.Fatal(err)
		}
		if n := len(table7Group(report, 6, 15)); n != 4 {
			b.Fatalf("%d strategies", n)
		}
	}
}

// BenchmarkFig13Strategies computes the two strategy illustrations of
// Fig 13: the replication rule pi(a=1|s) and the recovery threshold.
func BenchmarkFig13Strategies(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(ctx, ReplicationProblem{SMax: 13, F: 1, EpsilonA: 0.9, Q: 0.97})
		if err != nil {
			b.Fatal(err)
		}
		rec, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel(), DeltaR: InfiniteDeltaR})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Replication.AddProbability) != 14 || len(rec.Recovery.Thresholds) != 1 {
			b.Fatal("unexpected strategy shapes")
		}
	}
}

// BenchmarkFig14DetectionSensitivity sweeps detector quality and resolves
// Problem 1 (Fig 14 left panel).
func BenchmarkFig14DetectionSensitivity(b *testing.B) {
	seps := []float64{0.3, 0.5, 0.7, 1.0}
	for i := 0; i < b.N; i++ {
		pts, err := DetectorSensitivity(DefaultNodeModel(), seps)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(seps) {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkFig15Thresholds computes the within-window threshold curve
// alpha*_t for Delta_R = 100 (Fig 15b).
func BenchmarkFig15Thresholds(b *testing.B) {
	params := nodemodel.DefaultParams()
	for i := 0; i < b.N; i++ {
		sol, err := recovery.SolveDP(params, recovery.DPConfig{DeltaR: 100, GridSize: 200})
		if err != nil {
			b.Fatal(err)
		}
		if len(sol.Thresholds) != 99 {
			b.Fatal("wrong threshold count")
		}
	}
}

// BenchmarkFig16TransitionFn tabulates fS rows (Fig 16).
func BenchmarkFig16TransitionFn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		model, err := cmdp.NewBinomialModel(25, 3, 0.9, 0.9, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = model.FS[0][10]
	}
}

// BenchmarkFig18MetricDivergence ranks the candidate detection metrics by
// empirical KL divergence (Fig 18 / App. H).
func BenchmarkFig18MetricDivergence(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	profiles := ids.DefaultMetricProfiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranks, err := ids.RankMetrics(rng, profiles, 25000)
		if err != nil {
			b.Fatal(err)
		}
		if ranks[0].Metric != ids.MetricAlerts {
			b.Fatal("alerts not top-ranked")
		}
	}
}

// BenchmarkFleet measures the scenario-fleet engine's throughput
// (scenarios/sec) at growing worker counts — the parallel-speedup tracking
// metric for grid evaluations. The strategy cache is shared across
// iterations so the numbers reflect steady-state scenario execution, not
// one-time control-problem solves.
func BenchmarkFleet(b *testing.B) {
	suite := fleet.Suite{
		Name:         "bench",
		Seed:         1,
		SeedsPerCell: 1,
		Steps:        100,
		FitSamples:   500,
		AttackRates:  []float64{0.05, 0.1},
		N1s:          []int{3, 6},
		DeltaRs:      []int{15, 25},
		Policies: []fleet.PolicyKind{
			fleet.PolicyTolerance, fleet.PolicyNoRecovery,
			fleet.PolicyPeriodic, fleet.PolicyPeriodicAdaptive,
		},
	}
	scenarios := suite.NumScenarios()
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cache := fleet.NewStrategyCache()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(context.Background(), suite, fleet.Config{
					Workers: workers,
					Cache:   cache,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Scenarios != scenarios {
					b.Fatalf("ran %d scenarios, want %d", res.Scenarios, scenarios)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*scenarios)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// BenchmarkLearnedTraining measures learned-strategy training throughput
// at growing evaluation-worker counts — the Fig 7 convergence-suite
// tracking metric. Training is bit-identical at any worker count (enforced
// by TestAlgorithm1WorkersBitIdentical / TestTrainWorkersBitIdentical), so
// the sweep is pure wall-clock: near-linear in workers on multi-core
// hosts, flat on a 1-core CI host.
func BenchmarkLearnedTraining(b *testing.B) {
	params := nodemodel.DefaultParams()
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("cem/workers=%d", workers), func(b *testing.B) {
			const budget = 200
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recovery.Algorithm1(context.Background(), params, recovery.Algorithm1Config{
					DeltaR:    15,
					Optimizer: opt.CEM{},
					Budget:    budget,
					Episodes:  20,
					Horizon:   100,
					Seed:      1,
					Workers:   workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(budget*b.N)/b.Elapsed().Seconds(), "evals/s")
		})
		b.Run(fmt.Sprintf("ppo/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ppo.Train(context.Background(), params, ppo.Config{
					DeltaR:            15,
					Iterations:        3,
					StepsPerIteration: 512,
					Horizon:           100,
					Hidden:            16,
					Layers:            2,
					Seed:              1,
					Workers:           workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBeliefUpdate measures the cost of one Appendix A belief update,
// the hot operation of every node controller.
func BenchmarkBeliefUpdate(b *testing.B) {
	p := nodemodel.DefaultParams()
	belief := 0.3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		belief = p.UpdateBelief(belief, nodemodel.Wait, i%11)
	}
	_ = belief
}

// BenchmarkKLDivergence measures the Fig 18 divergence computation.
func BenchmarkKLDivergence(b *testing.B) {
	h := dist.MustBetaBinomial(31, 0.7, 3).Categorical()
	c := dist.MustBetaBinomial(31, 2.2, 1.2).Categorical()
	for i := 0; i < b.N; i++ {
		_ = dist.KLSmoothed(h, c, 1e-9)
	}
}
