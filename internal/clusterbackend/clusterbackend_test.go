package clusterbackend

import (
	"context"
	"errors"
	"testing"
	"time"

	"tolerance/internal/baselines"
	"tolerance/internal/emulation"
	"tolerance/internal/nodemodel"
	"tolerance/internal/telemetry"
)

// smokeScenario is small enough to run in seconds but hot enough (high
// attack rate, tight BTR calendar) that intrusions and forced restarts are
// all but guaranteed within the step budget.
func smokeScenario(seed int64) emulation.Scenario {
	params := nodemodel.DefaultParams()
	params.PA = 0.3
	params.PC1 = 0.02
	params.PC2 = 0.05
	return emulation.Scenario{
		N1:         4,
		SMax:       6,
		K:          1,
		F:          1,
		DeltaR:     4,
		Steps:      12,
		Seed:       seed,
		Params:     params,
		Policy:     baselines.Periodic{},
		FitSamples: 200,
	}
}

func TestClusterRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster integration test")
	}
	col := telemetry.New()
	res, err := Run(context.Background(), smokeScenario(7), Options{
		Telemetry:    col,
		StepInterval: 5 * time.Millisecond,
		ProbeTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	// The Periodic policy forces a recovery whenever a node hits its BTR
	// calendar slot — with DeltaR=4 and 12 steps every node cycles, so at
	// least one real process restart must have happened.
	if res.Restarts < 1 {
		t.Errorf("restarts = %d, want >= 1", res.Restarts)
	}
	if res.Metrics.Recoveries < res.Restarts {
		t.Errorf("recoveries %d < restarts %d", res.Metrics.Recoveries, res.Restarts)
	}
	if res.Metrics.Availability < 0 || res.Metrics.Availability > 1 {
		t.Errorf("availability = %v out of [0,1]", res.Metrics.Availability)
	}
	if res.Metrics.Availability > 0 && res.Metrics.ServiceLatencyMS <= 0 {
		t.Errorf("probes committed but ServiceLatencyMS = %v", res.Metrics.ServiceLatencyMS)
	}
	snap := col.Snapshot()
	restarts := snap.Counters[MetricReplicaRestarts]
	if restarts != int64(res.Restarts) {
		t.Errorf("telemetry %s = %d, result says %d", MetricReplicaRestarts, restarts, res.Restarts)
	}
}

// TestClusterRunRejectsBadScenario: the cluster backend validates a
// scenario by the emulation's rules (N1 <= SMax, ΔR >= 0, a policy) plus its
// own N1 >= 2, all with ErrBadScenario, before any replica starts.
func TestClusterRunRejectsBadScenario(t *testing.T) {
	for name, mutate := range map[string]func(*emulation.Scenario){
		"N1 > SMax":  func(sc *emulation.Scenario) { sc.N1 = sc.SMax + 1 },
		"ΔR = -1":    func(sc *emulation.Scenario) { sc.DeltaR = -1 },
		"N1 = 1":     func(sc *emulation.Scenario) { sc.N1 = 1 },
		"nil policy": func(sc *emulation.Scenario) { sc.Policy = nil },
	} {
		sc := smokeScenario(1)
		mutate(&sc)
		if _, err := Run(context.Background(), sc, Options{}); !errors.Is(err, emulation.ErrBadScenario) {
			t.Errorf("%s: err = %v, want ErrBadScenario", name, err)
		}
	}
}

func TestClusterRunCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster integration test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := smokeScenario(3)
	if _, err := Run(ctx, sc, Options{StepInterval: 5 * time.Millisecond}); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}
