// Package core holds the acceptance tests of the paper's two-level
// controller (§IV, Fig 1–2) as it drives live replicas. It has no non-test
// code: the controller is the emulation's control loop (emulation.Runner),
// whose node controllers run the Appendix A recursion (nodemodel.Bayes on
// the fitted observation model Ẑ; the node-controller tests below drive
// its oracle, Params.UpdateBelief, on the same Ẑ), a baselines.Policy's
// NodeAction and the BTR calendar, and whose system controller evicts
// crashed members and runs the policy's AddNode. internal/clusterbackend is
// the loop's plant: it carries each decision out on real MinBFT replicas
// and measures the service, and TestLiveClusterScheduleMatchesEmulation
// holds every other metric of a live run to emulation.Run's with ==.
package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"tolerance/internal/baselines"
	"tolerance/internal/clusterbackend"
	"tolerance/internal/cmdp"
	"tolerance/internal/emulation"
	"tolerance/internal/ids"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
)

// liveOptions keeps a live run to a few seconds: short control intervals
// and a probe timeout well under the default.
var liveOptions = clusterbackend.Options{
	StepInterval: 5 * time.Millisecond,
	ProbeTimeout: 300 * time.Millisecond,
}

// testStrategy recovers once the compromise belief reaches 0.5.
func testStrategy() *recovery.ThresholdStrategy {
	return &recovery.ThresholdStrategy{Thresholds: []float64{0.5}, DeltaR: recovery.InfiniteDeltaR}
}

// tolerancePolicy is the TOLERANCE pair: testStrategy for recovery and the
// CMDP replication strategy for smax = 7, f = 1.
func tolerancePolicy(t *testing.T) *baselines.Tolerance {
	t.Helper()
	model, err := cmdp.NewBinomialModel(7, 1, 0.9, 0.95, 0)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cmdp.Solve(model)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := baselines.NewTolerance(testStrategy(), sol)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// liveScenario is a TOLERANCE scenario on the live loop with attack rate pa.
func liveScenario(t *testing.T, seed int64, n1 int, pa float64, steps int) emulation.Scenario {
	t.Helper()
	params := nodemodel.DefaultParams()
	params.PA = pa
	return emulation.Scenario{
		N1:         n1,
		SMax:       7,
		K:          1,
		DeltaR:     recovery.InfiniteDeltaR,
		Steps:      steps,
		Seed:       seed,
		Params:     params,
		Policy:     tolerancePolicy(t),
		FitSamples: 200,
	}
}

// runLive runs sc on the live cluster backend without starting a replica
// when the scenario is rejected.
func runLive(sc emulation.Scenario, opts clusterbackend.Options) (clusterbackend.Result, error) {
	return clusterbackend.Run(context.Background(), sc, opts)
}

func TestNodeControllerValidation(t *testing.T) {
	if _, err := runLive(emulation.Scenario{}, clusterbackend.Options{}); !errors.Is(err, emulation.ErrBadScenario) {
		t.Errorf("empty scenario: err = %v, want ErrBadScenario", err)
	}
	if _, err := baselines.NewTolerance(nil, nil); err == nil {
		t.Error("nil recovery strategy should fail")
	}
	sc := liveScenario(t, 1, 3, 0.1, 10)
	sc.DeltaR = -1
	if _, err := runLive(sc, clusterbackend.Options{}); !errors.Is(err, emulation.ErrBadScenario) {
		t.Errorf("negative deltaR: err = %v, want ErrBadScenario", err)
	}
	sc = liveScenario(t, 1, 3, 0.1, 10)
	sc.Params.PA = 1.5
	if _, err := runLive(sc, clusterbackend.Options{}); !errors.Is(err, nodemodel.ErrInvalidParams) {
		t.Errorf("pA = 1.5: err = %v, want ErrInvalidParams", err)
	}
}

// TestNodeControllerDetectsIntrusion runs the live loop's node controller —
// the Appendix A recursion on the fitted observation rows plus TOLERANCE's
// threshold rule — on every catalog container: quiet on healthy traffic,
// quick to recover under a sustained intrusion, and back at the prior after
// the recovery.
func TestNodeControllerDetectsIntrusion(t *testing.T) {
	p := nodemodel.DefaultParams()
	pol, err := baselines.NewTolerance(testStrategy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fits, err := emulation.NewFitSet(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < fits.Len(); ci++ {
		profile := fits.Container(ci).Profile
		// The controller's model: p with the fitted Ẑ as its observations.
		pz := p
		pz.ZHealthy, pz.ZCompromised = fits.Fitted(ci).Healthy, fits.Fitted(ci).Compromised
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		belief, last := p.PA, nodemodel.Wait
		// step feeds one observation and returns the controller's decision.
		step := func(t int, compromised bool) nodemodel.Action {
			z := profile.NoIntrusion
			if compromised {
				z = profile.Intrusion
			}
			obs := z.Sample(rng)
			if obs >= ids.AlertSupport {
				obs = ids.AlertSupport - 1
			}
			belief = pz.UpdateBelief(belief, last, obs)
			last = pol.NodeAction(baselines.NodeContext{
				Belief: belief, Obs: obs, WindowPos: t, DeltaR: recovery.InfiniteDeltaR,
			})
			return last
		}
		recoveries := 0
		for i := 1; i <= 30; i++ {
			if step(i, false) == nodemodel.Recover {
				recoveries++
			}
		}
		if recoveries > 3 {
			t.Errorf("%s: %d spurious recoveries on healthy traffic", profile.Name, recoveries)
		}
		detected := -1
		for i := 0; i < 20; i++ {
			if step(31+i, true) == nodemodel.Recover {
				detected = i
				break
			}
		}
		if detected < 0 {
			t.Errorf("%s: intrusion never detected", profile.Name)
			continue
		}
		if detected > 15 {
			t.Errorf("%s: detection took %d steps", profile.Name, detected)
		}
		// The update after a recovery starts from the prior pA whatever
		// the belief was: every observation yields the posterior of pA.
		for o := 0; o < ids.AlertSupport; o++ {
			got := pz.UpdateBelief(belief, nodemodel.Recover, o)
			zc, zh := pz.ZCompromised.Prob(o), pz.ZHealthy.Prob(o)
			want := zc * p.PA / (zc*p.PA + zh*(1-p.PA))
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: post-recovery belief on o=%d is %v, want the prior's posterior %v",
					profile.Name, o, got, want)
				break
			}
		}
	}
}

// TestNodeControllerForcedCalendarRecovery: with a policy that never
// recovers on belief (PERIODIC) and ΔR = 5, the live loop's BTR calendar
// restarts each of three staggered nodes exactly once every five steps.
func TestNodeControllerForcedCalendarRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster integration test")
	}
	params := nodemodel.DefaultParams()
	params.PA, params.PC1, params.PC2 = 0, 0, 0
	opts := liveOptions
	opts.ProbeTimeout = 100 * time.Millisecond
	res, err := runLive(emulation.Scenario{
		N1:         3,
		SMax:       7,
		K:          1,
		DeltaR:     5,
		Steps:      25,
		Seed:       2,
		Params:     params,
		Policy:     baselines.Periodic{},
		FitSamples: 200,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Recoveries != 15 {
		t.Errorf("forced recoveries = %d in 25 steps on 3 nodes with deltaR=5, want 15", res.Metrics.Recoveries)
	}
	if res.Restarts < 1 || res.Restarts > res.Metrics.Recoveries {
		t.Errorf("real restarts = %d, want 1..%d", res.Restarts, res.Metrics.Recoveries)
	}
	if res.Metrics.Intrusions != 0 || res.Metrics.Evictions != 0 || res.Metrics.Additions != 0 {
		t.Errorf("calendar-only run changed the group: %+v", res.Metrics)
	}
}

// TestSystemControllerDecide checks the live loop's system controller rule:
// s_t = floor(sum_i (1 - b_i)) feeds the TOLERANCE replication strategy,
// which must add in every state at or below f and never above the last add
// state of the CMDP solution.
func TestSystemControllerDecide(t *testing.T) {
	model, err := cmdp.NewBinomialModel(13, 1, 0.95, 0.95, 0)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cmdp.Solve(model)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := baselines.NewTolerance(testStrategy(), sol)
	if err != nil {
		t.Fatal(err)
	}
	// floor((1-0.05) + (1-0.9)) = floor(1.05) = 1.
	beliefs := []float64{0.05, 0.9}
	healthy := 0.0
	for _, b := range beliefs {
		healthy += 1 - b
	}
	est := int(math.Floor(healthy))
	if est != 1 {
		t.Errorf("healthy estimate = %d, want 1", est)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := func(s int) baselines.SystemContext {
		return baselines.SystemContext{HealthyEstimate: s, AliveNodes: len(beliefs), Rng: rng}
	}
	// In state 1 (<= f) the strategy must grow.
	if !pol.AddNode(ctx(est)) {
		t.Error("controller should add at s=1 with f=1")
	}
	if !pol.AddNode(ctx(0)) {
		t.Error("controller should add at s=0")
	}
	_, last := sol.ThresholdStructure()
	if last < 1 || last >= 13 {
		t.Fatalf("last add state = %d, want in [1, 13)", last)
	}
	for s := last + 1; s <= 13; s++ {
		for i := 0; i < 20; i++ {
			if pol.AddNode(ctx(s)) {
				t.Fatalf("controller added at s=%d above the last add state %d", s, last)
			}
		}
	}
	// Without a replication strategy the system controller never grows.
	bare, err := baselines.NewTolerance(testStrategy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bare.AddNode(ctx(0)) {
		t.Error("TOLERANCE without a replication strategy added a node")
	}
}

func TestSystemControllerValidation(t *testing.T) {
	if _, err := runLive(emulation.Scenario{N1: 3, SMax: 7}, clusterbackend.Options{}); !errors.Is(err, emulation.ErrBadScenario) {
		t.Errorf("nil policy: err = %v, want ErrBadScenario", err)
	}
	if _, err := cmdp.NewBinomialModel(5, 1, 0.9, 1.5, 0); err == nil {
		t.Error("q = 1.5 should fail")
	}
	sc := liveScenario(t, 1, 3, 0.1, 10)
	sc.SMax = 2
	if _, err := runLive(sc, clusterbackend.Options{}); !errors.Is(err, emulation.ErrBadScenario) {
		t.Errorf("smax below N1: err = %v, want ErrBadScenario", err)
	}
}

// TestLiveClusterEndToEnd runs the full stack: MinBFT + attacker + node
// controllers + system controller, with a probe client checking service
// continuity — the §VII proof-of-concept in miniature.
func TestLiveClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	col := telemetry.New()
	opts := liveOptions
	opts.Telemetry = col
	res, err := runLive(liveScenario(t, 3, 4, 0.2, 25), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Intrusions == 0 {
		t.Error("no intrusions occurred with pA = 0.2 over 25 steps")
	}
	if m.Recoveries == 0 {
		t.Error("controllers never recovered a node")
	}
	if res.Restarts == 0 {
		t.Error("no replica process was restarted")
	}
	if m.Availability <= 0 || m.ServiceLatencyMS <= 0 {
		t.Errorf("no service request committed: T(A) = %v, latency = %v ms", m.Availability, m.ServiceLatencyMS)
	}
	snap := col.Snapshot()
	for name, want := range map[string]int{
		clusterbackend.MetricIntrusions:      m.Intrusions,
		clusterbackend.MetricEvictions:       m.Evictions,
		clusterbackend.MetricAdditions:       m.Additions,
		clusterbackend.MetricReplicaRestarts: res.Restarts,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("telemetry %s = %d, result says %d", name, got, want)
		}
	}
	t.Logf("live cluster metrics: %+v, restarts %d, max view %d", m, res.Restarts, res.MaxView)
}

func TestLiveClusterValidation(t *testing.T) {
	sc := liveScenario(t, 1, 1, 0.1, 10)
	if _, err := runLive(sc, clusterbackend.Options{}); !errors.Is(err, emulation.ErrBadScenario) {
		t.Errorf("N1 = 1: err = %v, want ErrBadScenario", err)
	}
	sc = liveScenario(t, 1, 3, 0.1, 10)
	sc.Policy = nil
	if _, err := runLive(sc, clusterbackend.Options{}); !errors.Is(err, emulation.ErrBadScenario) {
		t.Errorf("missing strategies: err = %v, want ErrBadScenario", err)
	}
}

// TestLiveClusterScheduleMatchesEmulation: the live loop is the
// emulation's, draw for draw — a cluster run's metrics equal emulation.Run's
// for the same scenario on every field but the two the replicas measure
// (probe availability and latency). One input per controller shape: the
// BTR calendar alone (PERIODIC at ΔR = 4) and belief-threshold recoveries
// with the CMDP's randomised adds (TOLERANCE at ΔR = ∞).
func TestLiveClusterScheduleMatchesEmulation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	params := nodemodel.DefaultParams()
	params.PA, params.PC1, params.PC2 = 0.3, 0.02, 0.05
	for _, tc := range []struct {
		name string
		sc   emulation.Scenario
	}{
		{"periodic-deltaR4", emulation.Scenario{
			N1: 4, SMax: 6, K: 1, F: 1, DeltaR: 4, Steps: 12, Seed: 42,
			Params: params, Policy: baselines.Periodic{}, FitSamples: 200,
		}},
		{"tolerance-cmdp-add", liveScenario(t, 11, 3, 0.3, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Probes do not enter the schedule, so a short timeout costs nothing.
			opts := liveOptions
			opts.ProbeTimeout = 100 * time.Millisecond
			res, err := runLive(tc.sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := emulation.Run(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Metrics
			got.Availability, got.ServiceLatencyMS = want.Availability, want.ServiceLatencyMS
			if got != *want {
				t.Errorf("cluster metrics differ from the emulation's:\n  cluster:   %+v\n  emulation: %+v", got, *want)
			}
			// A trivial schedule would make the comparison prove nothing.
			if want.Intrusions == 0 || want.Recoveries == 0 {
				t.Errorf("schedule saw no intrusion or no recovery: %+v", *want)
			}
			t.Logf("schedule metrics: %+v", *want)
		})
	}
}
