package emulation

import (
	"math"
	"strconv"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

func TestCatalogTenContainers(t *testing.T) {
	cat, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 10 {
		t.Fatalf("catalog has %d containers, want 10 (Table 4)", len(cat))
	}
	for _, c := range cat {
		if err := c.Profile.Validate(); err != nil {
			t.Errorf("container %d: %v", c.ID, err)
		}
		if len(c.Vulnerabilities) == 0 || len(c.Services) == 0 {
			t.Errorf("container %d missing vulns/services", c.ID)
		}
		if c.Profile.Divergence() <= 0 {
			t.Errorf("container %d has non-separating alert profile", c.ID)
		}
	}
	// Replicas 9-10 have two vulnerabilities (Table 4).
	if len(cat[8].Vulnerabilities) != 2 || len(cat[9].Vulnerabilities) != 2 {
		t.Error("replicas 9-10 should list two vulnerabilities")
	}
}

// TestCatalogCachedAndEqual is the sync.Once contract: repeated Catalog
// calls return equal catalogs (same profiles, same metadata), and mutating
// a returned slice cannot corrupt later calls.
func TestCatalogCachedAndEqual(t *testing.T) {
	c1, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("catalog lengths differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].ID != c2[i].ID || c1[i].OS != c2[i].OS {
			t.Errorf("container %d metadata differs", i)
		}
		if c1[i].Profile.NoIntrusion != c2[i].Profile.NoIntrusion ||
			c1[i].Profile.Intrusion != c2[i].Profile.Intrusion {
			t.Errorf("container %d does not share the cached profile", i)
		}
	}
	c1[0] = Container{} // callers own their slice
	c3, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if c3[0].ID != c2[0].ID {
		t.Error("mutating a returned catalog corrupted the cache")
	}
	fp1, err := CatalogFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, _ := CatalogFingerprint()
	if fp1 == "" || fp1 != fp2 {
		t.Errorf("catalog fingerprint unstable: %q vs %q", fp1, fp2)
	}
}

// TestFitSetSharedEquivalence is the offline-fit contract: a run with a
// pre-fitted observation-model set is identical to one that fits inline
// from the same (samples, seed) pair — the fit is a pure preprocessing
// step.
func TestFitSetSharedEquivalence(t *testing.T) {
	s := toleranceScenario(t, 3, 15, 11)
	s.Steps = 150
	inline, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	fits, err := NewFitSet(s.FitSamples, FitStreamSeed(s.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s.Fits = fits
	shared, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if *inline != *shared {
		t.Errorf("pre-fitted run differs from inline fit:\n%+v\n%+v", inline, shared)
	}
	if fits.Len() != 10 {
		t.Errorf("fit set holds %d containers, want 10", fits.Len())
	}
	for i := 0; i < fits.Len(); i++ {
		if fit := fits.Fitted(i); fit == nil || fit.Samples != s.FitSamples || fits.Container(i).ID != i+1 {
			t.Errorf("fit %d malformed", i)
		}
	}
}

// TestFitStreamSeedSplitsStreams checks that the derived streams are
// decorrelated from the base seed and from each other.
func TestFitStreamSeedSplitsStreams(t *testing.T) {
	if FitStreamSeed(7) == 7 || FitStreamSeed(7) == WorkloadStreamSeed(7) {
		t.Error("fit stream not split from base/workload stream")
	}
	if FitStreamSeed(7) != FitStreamSeed(7) {
		t.Error("fit stream seed not deterministic")
	}
	if FitStreamSeed(7) == FitStreamSeed(8) {
		t.Error("fit stream seeds collide across base seeds")
	}
}

// TestBeliefUpdateZeroAllocations guards the hot-path contract: one belief
// recursion, as step 1 takes it (the runner's Bayes on a Ẑ pair gathered
// from the FitSet slabs), allocates nothing.
func TestBeliefUpdateZeroAllocations(t *testing.T) {
	r, err := newRunner(Scenario{
		N1:         1,
		Seed:       1,
		Params:     nodemodel.DefaultParams(),
		Policy:     baselines.NoRecovery{},
		FitSamples: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := int(r.ln.off[0]) + 5
	zh, zc := r.fits.zhFlat, r.fits.zcFlat
	belief := 0.3
	allocs := testing.AllocsPerRun(1000, func() {
		belief = r.bayes.Update(belief, nodemodel.Wait, zc[flat], zh[flat])
	})
	if allocs != 0 {
		t.Errorf("belief update allocates %v times per call, want 0", allocs)
	}
}

// TestStepZeroAllocations guards the simulator's steady-state contract:
// with no node churn (no intrusions, crashes or recoveries), a simulation
// step allocates nothing — the per-step buffers are scratch on the runner.
// Churn events (intrusion starts, recovery-time records, node spawns)
// allocate by design; they are event-rate, not step-rate.
func TestStepZeroAllocations(t *testing.T) {
	params := nodemodel.DefaultParams()
	params.PA = 0  // no intrusions
	params.PC1 = 0 // no crashes
	params.PC2 = 0
	s := Scenario{
		N1:         6,
		Steps:      500,
		Seed:       3,
		Params:     params,
		Policy:     baselines.NoRecovery{},
		FitSamples: 300,
	}
	r, err := newRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	t1 := 1
	for ; t1 <= 50; t1++ {
		r.step(t1) // warm the scratch buffers
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.step(t1)
		t1++
	})
	if allocs != 0 {
		t.Errorf("steady-state step allocates %v times, want 0", allocs)
	}
}

// BenchmarkStep is the cost of one emulation step (ns/op = ns/step) under the
// TOLERANCE policy at the evaluation's parameters, from a small and a large
// initial system. The run is restarted every 500 steps, as grid-deep's
// scenarios are, so the node count stays in the range a scenario sees; the
// restart is inside the timer (one reset per 500 steps) and allocates
// nothing on a warm runner, so allocs/op must read 0.
func BenchmarkStep(b *testing.B) {
	for _, n1 := range []int{3, 9} {
		b.Run("N1="+strconv.Itoa(n1), func(b *testing.B) {
			s := toleranceScenario(b, n1, 15, 1)
			fits, err := NewFitSet(s.FitSamples, FitStreamSeed(s.Seed))
			if err != nil {
				b.Fatal(err)
			}
			s.Fits = fits
			s.Steps = 500
			r, err := newRunner(s)
			if err != nil {
				b.Fatal(err)
			}
			for t := 1; t <= s.Steps; t++ {
				r.step(t) // size the pool and the scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			t := s.Steps
			for i := 0; i < b.N; i++ {
				if t == s.Steps {
					s.Seed++
					if err := r.reset(s); err != nil {
						b.Fatal(err)
					}
					t = 0
				}
				t++
				r.step(t)
			}
		})
	}
}

func toleranceScenario(t testing.TB, n1, deltaR int, seed int64) Scenario {
	t.Helper()
	params := nodemodel.DefaultParams()
	params.PA = 0.1
	dp, err := recovery.SolveDP(params, recovery.DPConfig{DeltaR: deltaR, GridSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	f := (n1 - 1) / 2
	if f > 2 {
		f = 2
	}
	if f < 1 {
		f = 1
	}
	model, err := cmdp.NewBinomialModel(13, f, 0.9, 0.97, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cmdp.Solve(model)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := baselines.NewTolerance(dp.Strategy(deltaR), rep)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		N1:         n1,
		DeltaR:     deltaR,
		Steps:      600,
		Seed:       seed,
		Params:     params,
		Policy:     pol,
		FitSamples: 4000,
	}
}

func TestRunToleranceHighAvailability(t *testing.T) {
	s := toleranceScenario(t, 6, recovery.InfiniteDeltaR, 1)
	m, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Table 7: TOLERANCE reaches ~0.99 availability with fast recovery.
	if m.Availability < 0.9 {
		t.Errorf("TOLERANCE availability = %v, want > 0.9", m.Availability)
	}
	if m.TimeToRecovery > 20 {
		t.Errorf("TOLERANCE T(R) = %v, want small", m.TimeToRecovery)
	}
	if m.Recoveries == 0 || m.Intrusions == 0 {
		t.Errorf("run saw %d intrusions, %d recoveries", m.Intrusions, m.Recoveries)
	}
}

func TestRunNoRecoveryLowAvailability(t *testing.T) {
	s := toleranceScenario(t, 6, recovery.InfiniteDeltaR, 2)
	s.Policy = baselines.NoRecovery{}
	m, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Table 7: NO-RECOVERY collapses to ~0.1-0.2 availability and the
	// recovery-time penalty.
	if m.Availability > 0.5 {
		t.Errorf("NO-RECOVERY availability = %v, want low", m.Availability)
	}
	if m.TimeToRecovery < recovery.NoRecoveryPenalty/2 {
		t.Errorf("NO-RECOVERY T(R) = %v, want ~%d", m.TimeToRecovery, recovery.NoRecoveryPenalty)
	}
	if m.Recoveries != 0 {
		t.Errorf("NO-RECOVERY performed %d recoveries", m.Recoveries)
	}
}

func TestRunPeriodicBetween(t *testing.T) {
	sTol := toleranceScenario(t, 6, 15, 3)
	mTol, err := Run(sTol)
	if err != nil {
		t.Fatal(err)
	}
	sPer := toleranceScenario(t, 6, 15, 3)
	sPer.Policy = baselines.Periodic{}
	mPer, err := Run(sPer)
	if err != nil {
		t.Fatal(err)
	}
	sNo := toleranceScenario(t, 6, 15, 3)
	sNo.Policy = baselines.NoRecovery{}
	mNo, err := Run(sNo)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 12 ordering: TOLERANCE >= PERIODIC >> NO-RECOVERY on T(A), and
	// TOLERANCE has the smallest T(R).
	if mPer.Availability <= mNo.Availability {
		t.Errorf("PERIODIC availability %v not above NO-RECOVERY %v",
			mPer.Availability, mNo.Availability)
	}
	if mTol.Availability < mPer.Availability-0.08 {
		t.Errorf("TOLERANCE availability %v clearly below PERIODIC %v",
			mTol.Availability, mPer.Availability)
	}
	if mTol.TimeToRecovery >= mPer.TimeToRecovery {
		t.Errorf("TOLERANCE T(R) = %v not below PERIODIC %v (feedback advantage)",
			mTol.TimeToRecovery, mPer.TimeToRecovery)
	}
	// PERIODIC's recovery frequency approximates 1/DeltaR per node-step.
	if math.Abs(mPer.RecoveryFrequency-1.0/15) > 0.03 {
		t.Errorf("PERIODIC F(R) = %v, want ~%v", mPer.RecoveryFrequency, 1.0/15)
	}
}

func TestRunPeriodicAdaptiveAddsNodes(t *testing.T) {
	s := toleranceScenario(t, 3, 15, 4)
	s.Policy = baselines.PeriodicAdaptive{TargetN: 6}
	m, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Additions == 0 {
		t.Error("PERIODIC-ADAPTIVE never added a node")
	}
}

func TestRunScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{}); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := Run(Scenario{Policy: baselines.NoRecovery{}, N1: 0}); err == nil {
		t.Error("N1 = 0 should fail")
	}
	if _, err := Run(Scenario{Policy: baselines.NoRecovery{}, N1: 99, SMax: 13}); err == nil {
		t.Error("N1 > smax should fail")
	}
	if _, err := Run(Scenario{Policy: baselines.NoRecovery{}, N1: 3, DeltaR: -1}); err == nil {
		t.Error("negative deltaR should fail")
	}
}

func TestRunSeedsAggregation(t *testing.T) {
	s := toleranceScenario(t, 3, recovery.InfiniteDeltaR, 0)
	s.Steps = 200
	var acc Accumulator
	for seed := int64(1); seed <= 5; seed++ {
		s.Seed = seed
		m, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(m)
	}
	if acc.Runs() != 5 {
		t.Fatalf("folded %d runs, want 5", acc.Runs())
	}
	agg := acc.AggregateValue()
	if agg.Availability.Mean <= 0 || agg.Availability.Mean > 1 {
		t.Errorf("availability mean = %v", agg.Availability.Mean)
	}
	if agg.Availability.CI < 0 {
		t.Errorf("negative CI")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	s := toleranceScenario(t, 3, 15, 7)
	s.Steps = 150
	m1, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if *m1 != *m2 {
		t.Errorf("same seed produced different metrics:\n%+v\n%+v", m1, m2)
	}
}

func TestRunReportsAvgCost(t *testing.T) {
	// NO-RECOVERY never pays the recovery cost, so its per-node-step cost is
	// eta times the compromised fraction — strictly positive and above
	// TOLERANCE's optimized cost in this regime.
	sNo := toleranceScenario(t, 6, recovery.InfiniteDeltaR, 5)
	sNo.Policy = baselines.NoRecovery{}
	mNo, err := Run(sNo)
	if err != nil {
		t.Fatal(err)
	}
	if mNo.AvgCost <= 0 || mNo.AvgCost > sNo.Params.Eta {
		t.Errorf("NO-RECOVERY AvgCost = %v, want in (0, eta]", mNo.AvgCost)
	}
	sTol := toleranceScenario(t, 6, recovery.InfiniteDeltaR, 5)
	mTol, err := Run(sTol)
	if err != nil {
		t.Fatal(err)
	}
	if mTol.AvgCost <= 0 {
		t.Errorf("TOLERANCE AvgCost = %v, want positive", mTol.AvgCost)
	}
	if mTol.AvgCost >= mNo.AvgCost {
		t.Errorf("TOLERANCE cost %v not below NO-RECOVERY %v", mTol.AvgCost, mNo.AvgCost)
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	xs := []float64{0.3, 0.7, 0.45, 0.9, 0.12, 0.5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	if math.Abs(w.Mean-mean) > 1e-12 {
		t.Errorf("Welford mean %v, want %v", w.Mean, mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-12 {
		t.Errorf("Welford variance %v, want %v", w.Variance(), variance)
	}
	sum := w.Summary()
	se := math.Sqrt(variance / float64(len(xs)))
	if want := tCritical95(len(xs)-1) * se; math.Abs(sum.CI-want) > 1e-12 {
		t.Errorf("Welford CI %v, want %v", sum.CI, want)
	}
	var single Welford
	single.Add(0.4)
	if s := single.Summary(); s.Mean != 0.4 || s.CI != 0 || single.Variance() != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestTCritical95(t *testing.T) {
	if v := tCritical95(19); v != 2.093 {
		t.Errorf("t(19) = %v, want 2.093 (the paper's 20-seed protocol)", v)
	}
	if v := tCritical95(100); v != 1.96 {
		t.Errorf("t(100) = %v", v)
	}
	if v := tCritical95(1); v != 12.706 {
		t.Errorf("t(1) = %v", v)
	}
}

// TestWelfordMerge is the distributed-aggregation contract: folding the
// pieces of a split stream and merging them must reproduce the
// single-stream Welford moments within 1e-12, for every split point and
// for empty sides.
func TestWelfordMerge(t *testing.T) {
	xs := []float64{0.97, 0.41, 1e3, 0.0032, 7.7, 0.55, 12.1, 0.9981, 3.25, 0.07}
	var whole Welford
	for _, x := range xs {
		whole.Add(x)
	}
	for split := 0; split <= len(xs); split++ {
		var left, right Welford
		for _, x := range xs[:split] {
			left.Add(x)
		}
		for _, x := range xs[split:] {
			right.Add(x)
		}
		merged := left
		merged.Merge(right)
		if merged.Count != whole.Count {
			t.Fatalf("split %d: count %d, want %d", split, merged.Count, whole.Count)
		}
		if math.Abs(merged.Mean-whole.Mean) > 1e-12 {
			t.Errorf("split %d: mean %v, want %v", split, merged.Mean, whole.Mean)
		}
		if math.Abs(merged.Variance()-whole.Variance()) > 1e-12*whole.Variance() {
			t.Errorf("split %d: variance %v, want %v", split, merged.Variance(), whole.Variance())
		}
	}
	// Merging an empty accumulator is the identity in both directions.
	var empty Welford
	merged := whole
	merged.Merge(empty)
	if merged != whole {
		t.Errorf("merge with empty right changed state: %+v", merged)
	}
	merged = empty
	merged.Merge(whole)
	if merged != whole {
		t.Errorf("merge into empty left = %+v, want %+v", merged, whole)
	}
}

// TestAccumulatorMerge checks that merging per-shard accumulators matches
// the single-stream fold across every metric.
func TestAccumulatorMerge(t *testing.T) {
	metrics := make([]*Metrics, 7)
	for i := range metrics {
		v := float64(i + 1)
		metrics[i] = &Metrics{
			Availability:       0.9 + 0.01*v,
			QuorumAvailability: 0.8 + 0.02*v,
			TimeToRecovery:     3 * v,
			RecoveryFrequency:  0.001 * v,
			AvgNodes:           6 + v/10,
			AvgCost:            0.2 * v,
		}
	}
	var whole Accumulator
	for _, m := range metrics {
		whole.Add(m)
	}
	var a, b Accumulator
	for _, m := range metrics[:3] {
		a.Add(m)
	}
	for _, m := range metrics[3:] {
		b.Add(m)
	}
	a.Merge(&b)
	if a.Runs() != whole.Runs() {
		t.Fatalf("merged runs %d, want %d", a.Runs(), whole.Runs())
	}
	got, want := a.AggregateValue(), whole.AggregateValue()
	pairs := [][2]Summary{
		{got.Availability, want.Availability},
		{got.QuorumAvailability, want.QuorumAvailability},
		{got.TimeToRecovery, want.TimeToRecovery},
		{got.RecoveryFrequency, want.RecoveryFrequency},
		{got.AvgNodes, want.AvgNodes},
		{got.Cost, want.Cost},
	}
	for i, p := range pairs {
		if math.Abs(p[0].Mean-p[1].Mean) > 1e-12 || math.Abs(p[0].CI-p[1].CI) > 1e-12 {
			t.Errorf("metric %d: merged %+v, want %+v", i, p[0], p[1])
		}
	}
}
