// tolerance-sim runs one emulated testbed configuration (§VIII-A) over
// several seeds and prints the evaluation metrics. The flags describe a
// one-cell fleet suite, so the run takes the same path as every grid. The
// policy is any registered strategy kind, so the exact strategies, the
// baselines and the learned kinds all run through the same flag:
//
//	tolerance-sim -n1 6 -deltar 15 -steps 1000 -policy TOLERANCE
//	tolerance-sim -n1 3 -policy NO-RECOVERY -seeds 20
//	tolerance-sim -n1 6 -policy learned:cem
//
// -metrics-addr serves live telemetry (training progress for learned
// policies) over HTTP: /metrics, /debug/vars and /debug/pprof/*. Telemetry
// never writes to stdout and never changes the printed metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tolerance/internal/fleet"
	"tolerance/internal/telemetry"
)

// fitSamples is M for the Ẑ estimation: the paper's 25 000.
const fitSamples = 25000

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tolerance-sim:", err)
		os.Exit(1)
	}
}

// legacyNames maps the pre-registry policy flag values to strategy names.
var legacyNames = map[string]string{
	"tolerance":         "TOLERANCE",
	"no-recovery":       "NO-RECOVERY",
	"periodic":          "PERIODIC",
	"periodic-adaptive": "PERIODIC-ADAPTIVE",
}

func run() error {
	n1 := flag.Int("n1", 6, "initial number of nodes")
	deltaR := flag.Int("deltar", 15, "BTR bound (0 = infinity)")
	steps := flag.Int("steps", 1000, "time steps per run")
	seeds := flag.Int("seeds", 5, "number of evaluation seeds")
	policyName := flag.String("policy", "TOLERANCE",
		"strategy kind (any registered strategy; see tolerance-fleet -list-strategies)")
	pa := flag.Float64("pa", 0.1, "per-step compromise probability")
	epsa := flag.Float64("epsa", 0.9, "availability bound for replication")
	seed := flag.Int64("seed", 1, "suite master seed: scenario seeds and learned-policy training derive from it")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8417; empty = off)")
	flag.Parse()

	col := telemetry.New()
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, col)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}

	// First Ctrl-C cancels learned-policy training; releasing the handler
	// lets a second Ctrl-C force-kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	name := *policyName
	if canonical, ok := legacyNames[strings.ToLower(name)]; ok {
		name = canonical
	}
	suite := fleet.Suite{
		Name:         "tolerance-sim",
		Seed:         *seed,
		SeedsPerCell: *seeds,
		Steps:        *steps,
		FitSamples:   fitSamples,
		EpsilonA:     *epsa,
		AttackRates:  []float64{*pa},
		N1s:          []int{*n1},
		DeltaRs:      []int{*deltaR},
		Policies:     []fleet.PolicyKind{fleet.PolicyKind(name)},
	}
	cache := fleet.NewStrategyCache()
	cache.Instrument(col)
	res, err := fleet.Run(ctx, suite, fleet.Config{Cache: cache, Telemetry: col})
	if err != nil {
		return err
	}
	c := res.Cells[0]
	agg := c.Aggregate
	fmt.Printf("policy=%s N1=%d f=%d deltaR=%d steps=%d seeds=%d\n",
		c.Cell.Policy, c.Cell.N1, c.Cell.F, c.Cell.DeltaR, *steps, c.Runs)
	fmt.Printf("T(A) = %.3f ± %.3f\n", agg.Availability.Mean, agg.Availability.CI)
	fmt.Printf("T(R) = %.2f ± %.2f\n", agg.TimeToRecovery.Mean, agg.TimeToRecovery.CI)
	fmt.Printf("F(R) = %.4f ± %.4f\n", agg.RecoveryFrequency.Mean, agg.RecoveryFrequency.CI)
	fmt.Printf("avg nodes = %.2f\n", agg.AvgNodes.Mean)
	return nil
}
