package fleet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"tolerance/internal/cmdp"
	"tolerance/internal/emulation"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/strategies"
)

// qRequest is one request for q through ReplicationFor.
type qRequest struct {
	p      nodemodel.Params
	rec    recovery.Strategy
	recFP  string
	deltaR int
	f      int
}

// TestStrategyCacheSwitchesNodeModels: the cache retains one node model's
// occupancy table, so requests that alternate between models make it
// rebuild and replace the table. q must not depend on that: every memoized
// q is == to cmdp.HealthyProb on a fresh table of its own model, and
// HealthyEvals counts the distinct (params, strategy, Delta_R) — from one
// goroutine in a random order and from four sharing the cache.
func TestStrategyCacheSwitchesNodeModels(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var models []nodemodel.Params
	for _, c := range []struct{ pa, pc1, pc2 float64 }{{0.1, 1e-5, 1e-3}, {0.2, 5e-3, 2e-2}, {0.05, 1e-5, 1e-3}} {
		p := nodemodel.DefaultParams()
		p.PA, p.PC1, p.PC2 = c.pa, c.pc1, c.pc2
		models = append(models, p)
	}
	var requests []qRequest
	distinct := map[healthyKey]float64{}
	setup := NewStrategyCache()
	for _, p := range models {
		table, err := recovery.NewOccupancyTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, dr := range []int{5, 15, 40, recovery.InfiniteDeltaR} {
			dp, err := setup.Recovery(p, recovery.DPConfig{DeltaR: dr, GridSize: 300})
			if err != nil {
				t.Fatal(err)
			}
			thresholds := dp.Strategy(dr)
			for _, r := range []struct {
				rec recovery.Strategy
				fp  string
			}{
				{thresholds, thresholds.Fingerprint()},
				{recovery.NeverRecover{}, "never"},
				{recovery.PeriodicStrategy{Period: 3}, "periodic-3"},
			} {
				q, err := cmdp.HealthyProb(table, r.rec, dr)
				if err != nil {
					t.Fatal(err)
				}
				distinct[healthyKey{p.Digest(), r.fp, dr}] = q
				// Two system shapes per q: the second request hits q's memo.
				for _, f := range []int{1, 2} {
					requests = append(requests, qRequest{p, r.rec, r.fp, dr, f})
				}
			}
		}
	}
	check := func(what string, c *StrategyCache) {
		t.Helper()
		if got := c.Stats().HealthyEvals; got != int64(len(distinct)) {
			t.Errorf("%s: HealthyEvals = %d, want %d distinct (params, strategy, Delta_R)", what, got, len(distinct))
		}
		for key, want := range distinct {
			entry := c.healthy.m[key]
			if entry == nil || entry.err != nil {
				t.Errorf("%s: no q memoized for %+v", what, key)
				continue
			}
			if entry.val != want {
				t.Errorf("%s: q %v for %+v, a fresh table gives %v", what, entry.val, key, want)
			}
		}
	}
	// Some of these LPs are infeasible (never recovering leaves too few
	// healthy nodes); q is memoized before the LP runs either way.
	resolve := func(c *StrategyCache, r qRequest) {
		c.ReplicationFor(r.p, r.rec, r.recFP, 13, r.f, 0.9, r.deltaR)
	}

	seq := NewStrategyCache()
	for _, i := range rng.Perm(len(requests)) {
		resolve(seq, requests[i])
	}
	check("one goroutine", seq)

	shared := NewStrategyCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		order := rng.Perm(len(requests))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				resolve(shared, requests[i])
			}
		}()
	}
	wg.Wait()
	check("four goroutines", shared)
}

// TestStrategyCacheTemplatesConcurrent: goroutines asking for every cell's
// scenario template of one suite at once, each in its own order, share one
// template per cell, build each policy once and count exactly the hits a
// sequential pass would: a cell's first request resolves through
// PolicyFor, and every later one is a policy hit.
func TestStrategyCacheTemplatesConcurrent(t *testing.T) {
	s := benchWideSuite().withDefaults()
	cells := s.Cells()[:300] // five template blocks, the last one partial
	fp := s.Fingerprint()
	ctx := context.Background()

	seq := NewStrategyCache()
	for i := range cells {
		if _, err := seq.scenarioFor(ctx, fp, &cells[i], s); err != nil {
			t.Fatal(err)
		}
	}
	want := seq.Stats()

	const workers = 4
	c := NewStrategyCache()
	got := make([][]emulation.Scenario, workers)
	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	for w := range got {
		order := rng.Perm(len(cells))
		got[w] = make([]emulation.Scenario, len(cells))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				sc, err := c.scenarioFor(ctx, fp, &cells[i], s)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = sc
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range cells {
			if got[w][i].Policy != got[0][i].Policy {
				t.Fatalf("cell %d: goroutines %d and 0 got different policies", i, w)
			}
		}
	}
	want.PolicyHits += int64((workers - 1) * len(cells))
	if stats := c.Stats(); stats != want {
		t.Errorf("%d goroutines: %+v, want %+v", workers, stats, want)
	}
}

// allocSuite is a fixed small grid: two node models x two system sizes
// with distinct f x two Delta_Rs x the four built-in strategies (32
// cells).
func allocSuite() Suite {
	return Suite{
		Name:         "alloc",
		Seed:         5,
		SeedsPerCell: 1,
		Steps:        20,
		FitSamples:   200,
		AttackRates:  []float64{0.1, 0.2},
		N1s:          []int{3, 6},
		DeltaRs:      []int{5, 15},
		Policies: []PolicyKind{
			PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
		},
	}.withDefaults()
}

// coldAllocsPerCell is the budget of TestStrategyCacheColdAllocations: a
// cold resolution of allocSuite measured 8.4 allocations per cell with Go
// 1.24 (the DP ladders, the LPs and the occupancy tables included), where
// fmt-spelled keys and fingerprints took 27.9.
const coldAllocsPerCell = 10

// TestStrategyCacheColdAllocations guards the per-cell cost of a cold
// strategy cache: resolving every cell of a fixed suite on a fresh cache
// stays within coldAllocsPerCell allocations per cell, so throwaway key
// strings and fingerprint slices cannot creep back unnoticed.
func TestStrategyCacheColdAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := allocSuite()
	cells := s.Cells()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		c := NewStrategyCache()
		for _, cell := range cells {
			if _, err := c.PolicyFor(ctx, cell, s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perCell := allocs / float64(len(cells)); perCell > coldAllocsPerCell {
		t.Errorf("cold resolution: %.1f allocations per cell, budget %d", perCell, coldAllocsPerCell)
	}
}

// TestPolicyForWarmAllocations pins the warm hit path: a cached policy
// costs the string of its construction fingerprint and nothing else — no
// key string, no seed-key string, and no second fingerprint for a
// strategy that does not read the training seed (the seed-less fingerprint
// the seed hashes is then the one the policy is memoized under).
func TestPolicyForWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := allocSuite()
	c := NewStrategyCache()
	ctx := context.Background()
	for _, cell := range s.Cells() {
		if _, err := c.PolicyFor(ctx, cell, s); err != nil {
			t.Fatal(err)
		}
	}
	want := map[PolicyKind]float64{
		PolicyTolerance:        1,
		PolicyNoRecovery:       0,
		PolicyPeriodic:         0,
		PolicyPeriodicAdaptive: 1,
	}
	for _, cell := range s.Cells()[:4] {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.PolicyFor(ctx, cell, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want[cell.Policy] {
			t.Errorf("%s: warm PolicyFor makes %v allocations, want %v", cell.Policy, allocs, want[cell.Policy])
		}
	}
}

// TestUnknownPolicyIsUnknownStrategy: a policy name the strategy registry
// lacks is both a bad suite and an unknown strategy, whether a suite's
// validation or a strategy cache's resolution finds it.
func TestUnknownPolicyIsUnknownStrategy(t *testing.T) {
	s := testSuite()
	s.Policies = append(s.Policies, "no-such-strategy")
	verr := s.Validate()
	cell := testSuite().Cells()[0]
	cell.Policy = "no-such-strategy"
	_, perr := NewStrategyCache().PolicyFor(context.Background(), cell, testSuite())
	for what, err := range map[string]error{"Validate": verr, "PolicyFor": perr} {
		if !errors.Is(err, ErrBadSuite) || !errors.Is(err, strategies.ErrUnknownStrategy) {
			t.Errorf("%s: %v, want an error matching ErrBadSuite and strategies.ErrUnknownStrategy", what, err)
		}
	}
}
