package ids

import (
	"math/rand"
	"testing"

	"tolerance/internal/dist"
)

func TestNewBetaBinomialProfile(t *testing.T) {
	p, err := NewBetaBinomialProfile("ssh-brute-force", 0.8, 5, 3, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The intrusion distribution must be louder on average.
	if p.Intrusion.Mean() <= p.NoIntrusion.Mean() {
		t.Error("intrusion profile not louder than baseline")
	}
	if p.Divergence() <= 0 {
		t.Error("zero divergence profile")
	}
}

func TestProfileValidation(t *testing.T) {
	if err := (Profile{}).Validate(); err == nil {
		t.Error("empty profile should fail")
	}
	if _, err := NewBetaBinomialProfile("x", 0, 1, 1, 1); err == nil {
		t.Error("bad shape should fail")
	}
}

func TestProfileSampleStates(t *testing.T) {
	p, err := NewBetaBinomialProfile("x", 0.7, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	sumH, sumC := 0, 0
	for i := 0; i < n; i++ {
		sumH += p.NoIntrusion.Sample(rng)
		sumC += p.Intrusion.Sample(rng)
	}
	if sumC <= sumH {
		t.Error("compromised samples not louder on average")
	}
}

func TestFitConvergesToTruth(t *testing.T) {
	p, err := NewBetaBinomialProfile("x", 0.8, 5, 3, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	fit, err := Fit(rng, p, 25000) // the paper's M
	if err != nil {
		t.Fatal(err)
	}
	if fit.Samples != 25000 {
		t.Errorf("samples = %d", fit.Samples)
	}
	// The model mismatch D_KL(Z(.|C) || Ẑ(.|C)) (Fig 14 right panel
	// x-axis) should be small at M = 25k.
	mismatch := func(fit *FittedZ) float64 { return dist.KLSmoothed(p.Intrusion, fit.Compromised, 1e-9) }
	if mm := mismatch(fit); mm > 0.02 {
		t.Errorf("model mismatch = %v, want < 0.02 at M=25k", mm)
	}
	// A tiny sample gives a worse fit.
	rng = rand.New(rand.NewSource(2))
	small, err := Fit(rng, p, 30)
	if err != nil {
		t.Fatal(err)
	}
	if mismatch(small) <= mismatch(fit) {
		t.Error("30-sample fit should be worse than 25k-sample fit")
	}
}

func TestFitValidation(t *testing.T) {
	p, _ := NewBetaBinomialProfile("x", 0.8, 5, 3, 1.2)
	rng := rand.New(rand.NewSource(1))
	if _, err := Fit(rng, p, 0); err == nil {
		t.Error("m = 0 should fail")
	}
	if _, err := Fit(rng, Profile{}, 100); err == nil {
		t.Error("invalid profile should fail")
	}
}

func TestMetricRankingMatchesFig18(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ranks, err := RankMetrics(rng, DefaultMetricProfiles(), 25000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 6 {
		t.Fatalf("got %d metrics", len(ranks))
	}
	// Fig 18 / App. H: the alert metric provides the most information.
	if ranks[0].Metric != MetricAlerts {
		t.Errorf("top metric = %q, want alerts (Fig 18)", ranks[0].Metric)
	}
	div := map[Metric]float64{}
	for _, r := range ranks {
		div[r.Metric] = r.Divergence
	}
	// Ordering constraints from Fig 18: alerts >> blocks written >= failed
	// logins > processes/tcp/read which are all near zero.
	if div[MetricAlerts] < 5*div[MetricBlocksWrite] {
		t.Errorf("alerts divergence %v not dominant over blocks written %v",
			div[MetricAlerts], div[MetricBlocksWrite])
	}
	for _, weak := range []Metric{MetricProcesses, MetricTCP, MetricBlocksRead} {
		if div[weak] > 0.05 {
			t.Errorf("%s divergence = %v, want near zero", weak, div[weak])
		}
	}
	if div[MetricBlocksRead] > div[MetricAlerts] {
		t.Error("blocks read should be the least informative")
	}
}
