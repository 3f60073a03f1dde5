package emulation

import (
	"testing"

	"tolerance/internal/attacker"
	"tolerance/internal/baselines"
	"tolerance/internal/nodemodel"
)

// TestRunIntoMatchesRun is the worker-residency contract: a sequence of
// scenarios executed through one reused Runner produces exactly the metrics
// a fresh Run of each scenario produces — reset leaks no state between
// runs, in either direction (node pool, rng streams, metric sums, scratch).
func TestRunIntoMatchesRun(t *testing.T) {
	fits, err := NewFitSet(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{N1: 3, DeltaR: 15, Steps: 120, Seed: 1, Policy: baselines.Periodic{}, Fits: fits, FitSeed: 7},
		{N1: 6, DeltaR: 25, Steps: 150, Seed: 2, Policy: baselines.NoRecovery{}, Fits: fits, FitSeed: 7},
		{N1: 9, DeltaR: 15, Steps: 90, Seed: 3, Policy: baselines.PeriodicAdaptive{TargetN: 9}, Fits: fits, FitSeed: 7},
		{N1: 3, DeltaR: 15, Steps: 120, Seed: 1, Policy: baselines.Periodic{}, Fits: fits, FitSeed: 7},
	}
	r := NewRunner()
	for i, s := range scenarios {
		reused, err := r.RunInto(s)
		if err != nil {
			t.Fatalf("scenario %d: RunInto: %v", i, err)
		}
		fresh, err := Run(s)
		if err != nil {
			t.Fatalf("scenario %d: Run: %v", i, err)
		}
		if reused != *fresh {
			t.Errorf("scenario %d: reused runner metrics differ:\n got %+v\nwant %+v", i, reused, *fresh)
		}
	}
}

// TestRunIntoSteadyStateZeroAllocations guards the worker-resident
// contract: once a Runner is warm (its node pool and scratch sized by a
// first run), executing a whole scenario allocates nothing — including
// intrusion starts, recoveries and node churn, which all recycle pooled
// state.
func TestRunIntoSteadyStateZeroAllocations(t *testing.T) {
	params := nodemodel.DefaultParams()
	fits, err := NewFitSet(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		N1:      6,
		DeltaR:  15,
		Steps:   200,
		Seed:    11,
		Params:  params,
		Policy:  baselines.Periodic{},
		Fits:    fits,
		FitSeed: 5,
	}
	r := NewRunner()
	if _, err := r.RunInto(s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.RunInto(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunInto allocates %v times per scenario, want 0", allocs)
	}
}

// TestAccumulatorAddZeroAllocations guards the streaming-aggregation hot
// path: folding one run's metrics into the per-cell accumulators must not
// allocate (the fleet aggregator folds once per scenario).
func TestAccumulatorAddZeroAllocations(t *testing.T) {
	m := Metrics{Availability: 0.9, TimeToRecovery: 3, RecoveryFrequency: 0.05, AvgNodes: 6, AvgCost: 0.2}
	var w Welford
	x := 0.1
	allocs := testing.AllocsPerRun(1000, func() {
		w.Add(x)
		x += 0.01
	})
	if allocs != 0 {
		t.Errorf("Welford.Add allocates %v times per call, want 0", allocs)
	}
	var acc Accumulator
	allocs = testing.AllocsPerRun(1000, func() {
		acc.Add(&m)
	})
	if allocs != 0 {
		t.Errorf("Accumulator.Add allocates %v times per call, want 0", allocs)
	}
}

// recordingPlant counts the hook calls and checks each against the node
// set it tracks from them: ids name nodes in the group (0..N1−1, then one
// per addition in order), only crashed nodes are evicted, only running
// nodes crash or are compromised, and only compromised nodes are cleaned.
type recordingPlant struct {
	t                                          *testing.T
	inGroup, crashed, compromised              map[int]bool
	nextID                                     int
	recovers, evicts, adds, measures, intrudes int
}

func newRecordingPlant(t *testing.T, n1 int) *recordingPlant {
	p := &recordingPlant{t: t, inGroup: map[int]bool{}, crashed: map[int]bool{}, compromised: map[int]bool{}, nextID: n1}
	for id := 0; id < n1; id++ {
		p.inGroup[id] = true
	}
	return p
}

func (p *recordingPlant) member(hook string, id int) {
	if !p.inGroup[id] {
		p.t.Fatalf("%s(%d): not a node of the group", hook, id)
	}
}

func (p *recordingPlant) Recover(id int) {
	p.member("Recover", id)
	p.recovers++
	p.crashed[id], p.compromised[id] = false, false
}

func (p *recordingPlant) Evict(id int) {
	p.member("Evict", id)
	if !p.crashed[id] {
		p.t.Fatalf("Evict(%d) of a node that has not crashed", id)
	}
	p.evicts++
	delete(p.inGroup, id)
}

func (p *recordingPlant) Add(id int) {
	if id != p.nextID {
		p.t.Fatalf("Add(%d), want the next id %d", id, p.nextID)
	}
	p.nextID++
	p.adds++
	p.inGroup[id] = true
}

func (p *recordingPlant) Measure() { p.measures++ }

func (p *recordingPlant) Crash(id int) {
	p.member("Crash", id)
	if p.crashed[id] {
		p.t.Fatalf("Crash(%d) of a crashed node", id)
	}
	p.crashed[id], p.compromised[id] = true, false
}

func (p *recordingPlant) Compromise(id int, b attacker.Behaviour) {
	p.member("Compromise", id)
	if p.crashed[id] || p.compromised[id] {
		p.t.Fatalf("Compromise(%d) of a node that is not running clean", id)
	}
	if b < attacker.Participate || b > attacker.SendRandom {
		p.t.Fatalf("Compromise(%d) with behaviour %v", id, b)
	}
	p.intrudes++
	p.compromised[id] = true
}

func (p *recordingPlant) Clean(id int) {
	p.member("Clean", id)
	if !p.compromised[id] {
		p.t.Fatalf("Clean(%d) of a node that is not compromised", id)
	}
	p.compromised[id] = false
}

// TestPlantSeesEveryDecision: a run stepped with a plant makes exactly the
// metrics of RunInto (the plant never feeds back), and the plant hears of
// every recovery, eviction, addition and intrusion once, with ids that
// name the nodes the decisions hit, and of every step once.
func TestPlantSeesEveryDecision(t *testing.T) {
	params := nodemodel.DefaultParams()
	params.PA, params.PC1, params.PC2 = 0.2, 0.02, 0.05
	for name, s := range map[string]Scenario{
		"PERIODIC-ADAPTIVE": {N1: 4, SMax: 9, DeltaR: 5, Steps: 300, Seed: 3, Params: params, Policy: baselines.PeriodicAdaptive{TargetN: 8}, FitSamples: 300},
		"NO-RECOVERY":       {N1: 3, SMax: 7, Steps: 300, Seed: 4, Params: params, Policy: baselines.NoRecovery{}, FitSamples: 300},
	} {
		want, err := NewRunner().RunInto(s)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		p := newRecordingPlant(t, s.N1)
		if err := r.Start(s, p); err != nil {
			t.Fatal(err)
		}
		for r.Step() {
		}
		got := r.Finish()
		if got != want {
			t.Errorf("%s: metrics with a plant differ:\n got %+v\nwant %+v", name, got, want)
		}
		if p.recovers != got.Recoveries || p.evicts != got.Evictions || p.adds != got.Additions ||
			p.intrudes != got.Intrusions || p.measures != s.Steps {
			t.Errorf("%s: plant heard recover %d, evict %d, add %d, compromise %d, measure %d; run had %+v over %d steps",
				name, p.recovers, p.evicts, p.adds, p.intrudes, p.measures, got, s.Steps)
		}
		if got.Evictions == 0 || got.Intrusions == 0 {
			t.Errorf("%s: no eviction or no intrusion, the hooks went untested: %+v", name, got)
		}
	}
}
