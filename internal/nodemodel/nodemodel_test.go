package nodemodel

import (
	"math"
	"math/rand"
	"sort"
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
	if p1.Digest() != fresh.Digest() {
		t.Errorf("shared pair digest %s, freshly built %s", p1.Digest(), fresh.Digest())
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

// bayes3 is the three-state belief update of Appendix A written out from
// Transition and Observation: predict mu through T(. | s, a), weight each
// successor by Z(o | s') and normalise. It returns the posterior and P(o);
// the posterior is meaningless when P(o) = 0.
func bayes3(p Params, mu [3]float64, a Action, o int) ([3]float64, float64) {
	var post [3]float64
	for s := Healthy; s <= Crashed; s++ {
		row := p.Transition(s, a)
		for s2 := Healthy; s2 <= Crashed; s2++ {
			post[s2] += mu[s] * row[s2]
		}
	}
	po := 0.0
	for s2 := Healthy; s2 <= Crashed; s2++ {
		post[s2] *= p.Observation(s2).Prob(o)
		po += post[s2]
	}
	if po > 0 {
		for s2 := range post {
			post[s2] /= po
		}
	}
	return post, po
}

// Property: the scalar belief update agrees with the full 3-state Bayesian
// update of Appendix A projected on the alive subspace.
func TestScalarBeliefMatchesPOMDPUpdateProperty(t *testing.T) {
	p := DefaultParams()
	f := func(braw uint16, araw bool, oraw uint8) bool {
		b := float64(braw) / 65536
		a := Wait
		if araw {
			a = Recover
		}
		o := int(oraw) % p.NumObs()

		scalar := p.UpdateBelief(b, a, o)

		post, po := bayes3(p, [3]float64{1 - b, b, 0}, a, o)
		if po <= 0 {
			return false
		}
		alive := post[Healthy] + post[Compromised]
		if alive <= 0 {
			return true
		}
		want := post[Compromised] / alive
		return math.Abs(scalar-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// optimalValue3 is the finite-horizon Bellman recursion of Problem 1 on the
// full three-state belief mu, built only from Transition, Observation and
// Cost: V_0 = 0 and V_t(mu) = min_a sum_s mu(s) c(s, a) +
// sum_o P(o) V_{t-1}(bayes3(mu, a, o)).
func optimalValue3(p Params, mu [3]float64, horizon int) float64 {
	if horizon == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, a := range []Action{Wait, Recover} {
		v := 0.0
		for s := Healthy; s <= Crashed; s++ {
			v += mu[s] * p.Cost(s, a)
		}
		for o := 0; o < p.NumObs(); o++ {
			post, po := bayes3(p, mu, a, o)
			if po == 0 {
				continue
			}
			v += po * optimalValue3(p, post, horizon-1)
		}
		best = math.Min(best, v)
	}
	return best
}

// normalised scales non-negative weights with a positive sum into a
// distribution.
func normalised(w []float64) *dist.Categorical {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	for i := range w {
		w[i] /= sum
	}
	return dist.MustCategorical(w)
}

// randomCategorical draws a distribution over n outcomes; with zeros set,
// some outcomes get probability zero.
func randomCategorical(rng *rand.Rand, n int, zeros bool) *dist.Categorical {
	w := make([]float64, n)
	for i := range w {
		if !zeros || rng.Intn(3) != 0 {
			w[i] = rng.Float64()
		}
	}
	w[rng.Intn(n)] += 0.01
	return normalised(w)
}

// TestOptimalValueMatchesThreeStateRecursion holds the scalar recursion to
// the explicit three-state one over random valid models, zero-probability
// observations included.
func TestOptimalValueMatchesThreeStateRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := Params{
			PA: rng.Float64(), PC1: rng.Float64(), PC2: rng.Float64(), PU: rng.Float64(),
			Eta:          1 + 5*rng.Float64(),
			ZHealthy:     randomCategorical(rng, n, trial%2 == 0),
			ZCompromised: randomCategorical(rng, n, trial%2 == 0),
		}
		if trial%4 == 0 {
			p.PC1, p.PC2 = rng.Float64()*0.01, rng.Float64()*0.01
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, b := range []float64{0, rng.Float64(), 0.5, rng.Float64(), 1} {
			for horizon := 0; horizon <= 3; horizon++ {
				got, _ := p.OptimalValue(b, horizon)
				want := optimalValue3(p, [3]float64{1 - b, b, 0}, horizon)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("trial %d %+v: V_%d(%v) = %v, three-state recursion %v",
						trial, p, horizon, b, got, want)
				}
			}
		}
	}
}

// TestOptimalValueOneStepClosedForm: with one step to go, waiting costs the
// expected compromise cost and recovering costs 1, so V_1(b) = min(ηb, 1),
// recovering only when ηb > 1.
func TestOptimalValueOneStepClosedForm(t *testing.T) {
	for _, eta := range []float64{1, 2, 3.7} {
		p := DefaultParams()
		p.Eta = eta
		for i := 0; i <= 100; i++ {
			b := float64(i) / 100
			v, a := p.OptimalValue(b, 1)
			if want := math.Min(eta*b, 1); math.Abs(v-want) > 1e-15 {
				t.Errorf("eta %v: V_1(%v) = %v, want %v", eta, b, v, want)
			}
			if want := eta*b > 1; (a == Recover) != want {
				t.Errorf("eta %v: action at b = %v is %v", eta, b, a)
			}
		}
	}
}

// randomTP2Pair draws alert distributions over n counts that satisfy
// assumptions D and E: every probability positive and the likelihood ratio
// Z(o|C)/Z(o|H) non-decreasing in o.
func randomTP2Pair(rng *rand.Rand, n int) (*dist.Categorical, *dist.Categorical) {
	zh := make([]float64, n)
	ratio := make([]float64, n)
	for o := range zh {
		zh[o] = 0.05 + rng.Float64()
		ratio[o] = 0.05 + rng.Float64()
	}
	sort.Float64s(ratio)
	zc := make([]float64, n)
	for o := range zc {
		zc[o] = zh[o] * ratio[o]
	}
	return normalised(zh), normalised(zc)
}

// TestOptimalValueTheorem1Structure: for random models that satisfy
// Theorem 1's assumptions, the optimal action is a belief threshold (the
// Recover set is an upper interval of a 101-point grid) and V_t is concave
// in b, for t = 1, 2, 3. One model in ten keeps Table 8's alert
// distributions; the others draw a TP-2 pair over 2-5 alert counts.
func TestOptimalValueTheorem1Structure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for models := 0; models < 300; {
		p := DefaultParams()
		p.PA = 0.3 * rng.Float64()
		p.PU = 0.3 * rng.Float64()
		p.PC1 = 0.05 * rng.Float64()
		p.PC2 = p.PC1 + (1-p.PC1)*rng.Float64()
		p.Eta = 1 + 5*rng.Float64()
		if models%10 != 0 {
			p.ZHealthy, p.ZCompromised = randomTP2Pair(rng, 2+rng.Intn(4))
		}
		if p.CheckTheorem1Assumptions() != nil {
			continue
		}
		models++
		for horizon := 1; horizon <= 3; horizon++ {
			var v [101]float64
			recovering := false
			for i := range v {
				var a Action
				v[i], a = p.OptimalValue(float64(i)/100, horizon)
				if recovering && a == Wait {
					t.Fatalf("%+v, t = %d: Wait at b = %v after Recover below it", p, horizon, float64(i)/100)
				}
				recovering = a == Recover
			}
			for i := 1; i < len(v)-1; i++ {
				if d := v[i-1] - 2*v[i] + v[i+1]; d > 1e-12 {
					t.Fatalf("%+v, t = %d: V not concave at b = %v (second difference %v)", p, horizon, float64(i)/100, d)
				}
			}
		}
	}
}

// TestOptimalValueFig4Golden pins Fig 4's V*_4 at b = 0, 0.1, ..., 1 (Table 8
// with pA = 0.01) to the values of an uncapped incremental-pruning solve of
// the three-state model.
func TestOptimalValueFig4Golden(t *testing.T) {
	want := []float64{
		0.0995223388, 0.6008955382, 1.0165577061, 1.0994927804,
		1.0994829276, 1.0994730747, 1.0994632219, 1.0994533691,
		1.0994435163, 1.0994336635, 1.0994238107,
	}
	p := DefaultParams()
	p.PA = 0.01
	for i, w := range want {
		b := float64(i) / 10
		if v, _ := p.OptimalValue(b, 4); math.Abs(v-w) > 1e-9 {
			t.Errorf("V*_4(%v) = %.10f, want %.10f", b, v, w)
		}
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
		want := 1 - math.Pow(1-pa, 50)
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
