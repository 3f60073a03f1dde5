package baselines

import (
	"math/rand"
	"testing"

	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

func TestPolicyUsesBTR(t *testing.T) {
	tol, err := NewTolerance(&recovery.ThresholdStrategy{Thresholds: []float64{0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    Policy
		name string
		btr  bool
	}{
		{NoRecovery{}, "NO-RECOVERY", false},
		{Periodic{}, "PERIODIC", true},
		{PeriodicAdaptive{}, "PERIODIC-ADAPTIVE", true},
		{tol, "TOLERANCE", true},
	} {
		if tc.p.UsesBTR() != tc.btr {
			t.Errorf("%s UsesBTR = %v, want %v", tc.name, tc.p.UsesBTR(), tc.btr)
		}
	}
}

func TestNewToleranceValidation(t *testing.T) {
	if _, err := NewTolerance(nil, nil); err == nil {
		t.Error("nil recovery strategy should fail")
	}
}

func TestNoRecoveryAndPeriodicNeverAct(t *testing.T) {
	ctx := NodeContext{Belief: 0.99, Obs: 30}
	if (NoRecovery{}).NodeAction(ctx) != nodemodel.Wait {
		t.Error("NO-RECOVERY recovered")
	}
	if (Periodic{}).NodeAction(ctx) != nodemodel.Wait {
		t.Error("PERIODIC recovered outside the calendar")
	}
	sctx := SystemContext{HealthyEstimate: 0, Rng: rand.New(rand.NewSource(1))}
	if (NoRecovery{}).AddNode(sctx) || (Periodic{}).AddNode(sctx) {
		t.Error("static baselines added nodes")
	}
}

func TestPeriodicAdaptiveAddRule(t *testing.T) {
	p := PeriodicAdaptive{}
	// o >= 2 E[O] triggers an addition (§VIII-B).
	ctx := SystemContext{Observations: []int{3, 21}, MeanObs: 10}
	if !p.AddNode(ctx) {
		t.Error("should add when an observation doubles the mean")
	}
	ctx = SystemContext{Observations: []int{3, 19}, MeanObs: 10}
	if p.AddNode(ctx) {
		t.Error("should not add below the threshold")
	}
	if p.AddNode(SystemContext{Observations: []int{5}}) {
		t.Error("zero mean must not trigger")
	}
}

func TestToleranceDelegates(t *testing.T) {
	rec := &recovery.ThresholdStrategy{Thresholds: []float64{0.6}, DeltaR: recovery.InfiniteDeltaR}
	model, err := cmdp.NewBinomialModel(10, 1, 0.9, 0.95, 0)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cmdp.Solve(model)
	if err != nil {
		t.Fatal(err)
	}
	tol, err := NewTolerance(rec, sol)
	if err != nil {
		t.Fatal(err)
	}
	if tol.NodeAction(NodeContext{Belief: 0.7, WindowPos: 1}) != nodemodel.Recover {
		t.Error("belief above threshold should recover")
	}
	if tol.NodeAction(NodeContext{Belief: 0.5, WindowPos: 1}) != nodemodel.Wait {
		t.Error("belief below threshold should wait")
	}
	rng := rand.New(rand.NewSource(2))
	// At s=0 the replication strategy must add.
	added := false
	for i := 0; i < 20; i++ {
		if tol.AddNode(SystemContext{HealthyEstimate: 0, Rng: rng}) {
			added = true
		}
	}
	if !added {
		t.Error("TOLERANCE never added at s=0")
	}
	// Without a replication solution it never adds.
	tolNoRep, _ := NewTolerance(rec, nil)
	if tolNoRep.AddNode(SystemContext{HealthyEstimate: 0, Rng: rng}) {
		t.Error("nil replication policy added a node")
	}
}
