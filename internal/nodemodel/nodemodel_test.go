package nodemodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tolerance/internal/dist"
)

func TestDefaultParamsSatisfyTheorem1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := p.CheckTheorem1Assumptions(); err != nil {
		t.Fatalf("Table 8 parameters must satisfy Thm 1 assumptions: %v", err)
	}
}

// TestDefaultParamsShareAlertPair: every DefaultParams value shares one
// immutable Table 8 alert pair, and that pair is the one a fresh build of
// the two Beta-Binomials gives, to the fingerprint.
func TestDefaultParamsShareAlertPair(t *testing.T) {
	p1, p2 := DefaultParams(), DefaultParams()
	if p1.ZHealthy != p2.ZHealthy || p1.ZCompromised != p2.ZCompromised {
		t.Error("two DefaultParams calls built separate alert distributions")
	}
	fresh := p1
	fresh.ZHealthy = dist.MustBetaBinomial(10, 0.7, 3).Categorical()
	fresh.ZCompromised = dist.MustBetaBinomial(10, 1, 0.7).Categorical()
	if p1.Fingerprint() != fresh.Fingerprint() {
		t.Errorf("shared pair fingerprint %s, freshly built %s", p1.Fingerprint(), fresh.Fingerprint())
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"negative pA", func(p *Params) { p.PA = -0.1 }},
		{"pA > 1", func(p *Params) { p.PA = 1.5 }},
		{"NaN pC1", func(p *Params) { p.PC1 = math.NaN() }},
		{"eta < 1", func(p *Params) { p.Eta = 0.5 }},
		{"missing ZH", func(p *Params) { p.ZHealthy = nil }},
		{"support mismatch", func(p *Params) {
			p.ZCompromised = dist.MustBetaBinomial(5, 1, 0.7).Categorical()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestTheorem1AssumptionViolations(t *testing.T) {
	// Assumption A: boundary probabilities.
	p := DefaultParams()
	p.PU = 0
	if err := p.CheckTheorem1Assumptions(); err == nil {
		t.Error("pU = 0 should violate assumption A")
	}
	// Assumption B.
	p = DefaultParams()
	p.PA = 0.6
	p.PU = 0.5
	if err := p.CheckTheorem1Assumptions(); err == nil {
		t.Error("pA + pU > 1 should violate assumption B")
	}
	// Assumption E: likelihood ratio must be monotone (TP-2).
	p = DefaultParams()
	p.ZHealthy = dist.MustCategorical([]float64{0.6, 0.3, 0.1})
	p.ZCompromised = dist.MustCategorical([]float64{0.1, 0.3, 0.6})
	if err := p.CheckTheorem1Assumptions(); err != nil {
		t.Errorf("monotone ratio should pass E: %v", err)
	}
	p.ZCompromised = dist.MustCategorical([]float64{0.4, 0.1, 0.5})
	if err := p.CheckTheorem1Assumptions(); err == nil {
		t.Error("non-monotone likelihood ratio should violate assumption E")
	}
}

// Property: eq. (2) rows sum to one for all parameters and state-action
// pairs (the paper's transition function is stochastic by construction).
func TestTransitionRowsStochasticProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := DefaultParams()
		p.PA = float64(a) / 256
		p.PC1 = float64(b) / 256
		p.PC2 = float64(c) / 256
		p.PU = float64(d) / 256
		for s := Healthy; s <= Crashed; s++ {
			for _, act := range []Action{Wait, Recover} {
				row := p.Transition(s, act)
				sum := row[0] + row[1] + row[2]
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
				for _, v := range row {
					if v < 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransitionMatchesEquation2(t *testing.T) {
	p := DefaultParams()
	// (2b): f(∅|H,.) = pC1.
	if got := p.Transition(Healthy, Wait)[Crashed]; got != p.PC1 {
		t.Errorf("f(∅|H,W) = %v, want %v", got, p.PC1)
	}
	// (2g): f(H|C,W) = (1-pC2) pU.
	if got, want := p.Transition(Compromised, Wait)[Healthy], (1-p.PC2)*p.PU; math.Abs(got-want) > 1e-15 {
		t.Errorf("f(H|C,W) = %v, want %v", got, want)
	}
	// (2f): f(H|C,R) = (1-pA)(1-pC2).
	if got, want := p.Transition(Compromised, Recover)[Healthy], (1-p.PA)*(1-p.PC2); math.Abs(got-want) > 1e-15 {
		t.Errorf("f(H|C,R) = %v, want %v", got, want)
	}
	// (2a): crashed absorbing.
	if got := p.Transition(Crashed, Recover); got != [3]float64{0, 0, 1} {
		t.Errorf("f(.|∅) = %v, want absorbing", got)
	}
}

func TestCostFunctionEquation5(t *testing.T) {
	p := DefaultParams() // eta = 2
	tests := []struct {
		s    State
		a    Action
		want float64
	}{
		{Healthy, Wait, 0},
		{Healthy, Recover, 1},
		{Compromised, Wait, 2}, // eta
		{Compromised, Recover, 1},
		{Crashed, Wait, 0},
		{Crashed, Recover, 0},
	}
	for _, tt := range tests {
		if got := p.Cost(tt.s, tt.a); got != tt.want {
			t.Errorf("Cost(%v, %v) = %v, want %v", tt.s, tt.a, got, tt.want)
		}
	}
}

func TestExpectedCost(t *testing.T) {
	p := DefaultParams()
	if got := p.ExpectedCost(0.5, Wait); math.Abs(got-1) > 1e-12 {
		t.Errorf("ExpectedCost(0.5, W) = %v, want eta*b = 1", got)
	}
	if got := p.ExpectedCost(0.5, Recover); got != 1 {
		t.Errorf("ExpectedCost(0.5, R) = %v, want 1", got)
	}
}

func TestBeliefUpdateMovesTowardEvidence(t *testing.T) {
	p := DefaultParams()
	b := 0.2
	// A maximal alert count is strong evidence of compromise.
	high := p.UpdateBelief(b, Wait, p.NumObs()-1)
	if high <= b {
		t.Errorf("belief after high alerts = %v, want > %v", high, b)
	}
	// Zero alerts should lower the belief relative to the predictive prior.
	low := p.UpdateBelief(0.9, Wait, 0)
	if low >= 0.9 {
		t.Errorf("belief after zero alerts = %v, want < 0.9", low)
	}
}

func TestBeliefUpdateAfterRecovery(t *testing.T) {
	p := DefaultParams()
	// After a recovery the predictive prior resets to pA regardless of b.
	b1 := p.UpdateBelief(0.99, Recover, 3)
	b2 := p.UpdateBelief(0.01, Recover, 3)
	if math.Abs(b1-b2) > 1e-12 {
		t.Errorf("post-recovery beliefs differ: %v vs %v", b1, b2)
	}
}

// Property: the scalar belief update agrees with the full 3-state Bayesian
// update of Appendix A projected on the alive subspace.
func TestScalarBeliefMatchesPOMDPUpdateProperty(t *testing.T) {
	p := DefaultParams()
	m, err := p.POMDP()
	if err != nil {
		t.Fatal(err)
	}
	f := func(braw uint16, araw bool, oraw uint8) bool {
		b := float64(braw) / 65536
		a := Wait
		if araw {
			a = Recover
		}
		o := int(oraw) % p.NumObs()

		scalar := p.UpdateBelief(b, a, o)

		full := []float64{1 - b, b, 0}
		post, _, err := m.UpdateBelief(full, int(a), o)
		if err != nil {
			return false
		}
		alive := post[0] + post[1]
		if alive <= 0 {
			return true
		}
		want := post[1] / alive
		return math.Abs(scalar-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestBeliefUpdateConvergesUnderSustainedIntrusion(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(4))
	b := p.PA
	for i := 0; i < 60; i++ {
		o := p.SampleObservation(rng, Compromised)
		b = p.UpdateBelief(b, Wait, o)
	}
	if b < 0.9 {
		t.Errorf("belief after 60 compromised observations = %v, want > 0.9", b)
	}
}

func TestSurvivalProb(t *testing.T) {
	p := DefaultParams()
	if got, want := p.SurvivalProb(0), 1-p.PC1; math.Abs(got-want) > 1e-15 {
		t.Errorf("SurvivalProb(0) = %v, want %v", got, want)
	}
	if got, want := p.SurvivalProb(1), 1-p.PC2; math.Abs(got-want) > 1e-15 {
		t.Errorf("SurvivalProb(1) = %v, want %v", got, want)
	}
}

func TestFailureProbByTimeMatchesFig5(t *testing.T) {
	// Fig 5 configuration: no recoveries, pU = 0.
	for _, pa := range []float64{0.1, 0.05, 0.025, 0.01} {
		p := DefaultParams()
		p.PA = pa
		p.PU = 0
		curve := p.FailureProbByTime(100)
		if curve[0] != 0 {
			t.Errorf("pA=%v: curve[0] = %v, want 0", pa, curve[0])
		}
		// Monotone non-decreasing.
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1]-1e-12 {
				t.Fatalf("pA=%v: curve decreases at %d", pa, i)
			}
		}
		// Since crash probs are tiny, the curve approximates the geometric
		// CDF 1-(1-pA)^t.
		want := dist.GeometricCDF(pa, 50)
		if math.Abs(curve[50]-want) > 0.01 {
			t.Errorf("pA=%v: curve[50] = %v, want ~%v", pa, curve[50], want)
		}
	}
	// Ordering by pA at a fixed time (the visual content of Fig 5).
	p1, p2 := DefaultParams(), DefaultParams()
	p1.PA, p1.PU = 0.1, 0
	p2.PA, p2.PU = 0.01, 0
	if p1.FailureProbByTime(30)[30] <= p2.FailureProbByTime(30)[30] {
		t.Error("higher pA should fail sooner")
	}
}

func TestSampleTransitionDistribution(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(10))
	const n = 100000
	counts := map[State]int{}
	for i := 0; i < n; i++ {
		counts[p.SampleTransition(rng, Healthy, Wait)]++
	}
	row := p.Transition(Healthy, Wait)
	for s := Healthy; s <= Crashed; s++ {
		got := float64(counts[s]) / n
		if math.Abs(got-row[s]) > 0.01 {
			t.Errorf("empirical P(H->%v) = %v, want %v", s, got, row[s])
		}
	}
}

func TestPOMDPAssembly(t *testing.T) {
	p := DefaultParams()
	m, err := p.POMDP()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates != 3 || m.NumActions != 2 || m.NumObs != 11 {
		t.Errorf("dims = %d/%d/%d", m.NumStates, m.NumActions, m.NumObs)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Eta = 0
	if _, err := bad.POMDP(); err == nil {
		t.Error("POMDP with invalid params should fail")
	}
}

func TestStateActionStrings(t *testing.T) {
	if Healthy.String() != "H" || Compromised.String() != "C" || Crashed.String() != "∅" {
		t.Error("state strings wrong")
	}
	if Wait.String() != "W" || Recover.String() != "R" {
		t.Error("action strings wrong")
	}
	if State(9).String() == "" || Action(9).String() == "" {
		t.Error("unknown values should still stringify")
	}
}
