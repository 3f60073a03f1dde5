package emulation

import (
	"math/rand"
	"sort"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/nodemodel"
)

// randBeliefParams draws a random but well-formed node model for the
// belief-lane property tests: probabilities in (0, 1) with enough spread to
// hit both branches of the prediction (Wait survival mass can approach zero
// when the crash probabilities approach one).
func randBeliefParams(rng *rand.Rand) nodemodel.Params {
	p := nodemodel.DefaultParams()
	p.PA = rng.Float64()
	p.PC1 = rng.Float64()
	p.PC2 = rng.Float64()
	p.PU = rng.Float64()
	return p
}

// TestBeliefLanesMatchScalar is the belief lanes' correctness contract:
// across randomized parameters, node counts, beliefs, actions and seeds,
// every belief a step leaves on the lanes must be bit-identical to the
// scalar oracle Params.UpdateBelief on the node's fitted Ẑ, fed the step's
// observation — exact float64 equality, not a tolerance, because the
// fleet's byte-stability guarantees sit on top of it. NO-RECOVERY keeps
// stages 2–4 from resetting a belief or adding a node, so each surviving
// node's lane belief is its step-1 update; nodes evicted in stage 4 are
// skipped.
func TestBeliefLanesMatchScalar(t *testing.T) {
	fits, err := NewFitSet(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// oracle[k] is the node model with container k's fitted Ẑ, set per trial.
	oracle := make([]nodemodel.Params, fits.Len())
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		p := randBeliefParams(rng)
		n1 := 1 + rng.Intn(24)
		r, err := newRunner(Scenario{
			N1:     n1,
			SMax:   24,
			Steps:  1,
			Seed:   int64(trial) + 1,
			Params: p,
			Policy: baselines.NoRecovery{},
			Fits:   fits,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range oracle {
			oracle[k] = p
			oracle[k].ZHealthy = fits.Fitted(k).Healthy
			oracle[k].ZCompromised = fits.Fitted(k).Compromised
		}
		// A few warm steps let intrusions and crashes happen, then fresh
		// beliefs and a mix of last actions go on the lanes.
		for t1 := 1; t1 <= 3; t1++ {
			r.step(t1)
		}
		L := &r.ln
		before := make(map[*simNode]int, len(r.nodes))
		belief := make([]float64, len(r.nodes))
		action := make([]nodemodel.Action, len(r.nodes))
		for i, nd := range r.nodes {
			before[nd] = i
			L.belief[i] = rng.Float64()
			if rng.Intn(3) == 0 {
				L.action[i] = uint8(nodemodel.Recover)
			}
			belief[i], action[i] = L.belief[i], nodemodel.Action(L.action[i])
		}
		r.step(4)
		for j, nd := range r.nodes {
			i, ok := before[nd]
			if !ok {
				t.Fatalf("trial %d: node %d appeared under NO-RECOVERY", trial, nd.id)
			}
			k := -1
			for c := 0; c < fits.Len(); c++ {
				if fits.Container(c).ID == nd.container.ID {
					k = c
				}
			}
			want := oracle[k].UpdateBelief(belief[i], action[i], L.obs[i])
			if got := L.belief[j]; got != want {
				t.Fatalf("trial %d node %d: lane belief %v, scalar %v (params %+v)",
					trial, nd.id, got, want, p)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d node updates checked", checked)
	}
}

// TestBeliefLanesZeroAlloc pins the belief lanes' allocation-free contract
// at a wide lane: the step-1 pass (draw, gather the Ẑ pair, update) runs
// once per simulated step on the fleet hot path, where the per-scenario
// allocation budget is already accounted to the runner.
func TestBeliefLanesZeroAlloc(t *testing.T) {
	p := nodemodel.DefaultParams()
	p.PA, p.PC1, p.PC2 = 0, 0, 0 // no churn: the lanes keep their width
	const n = 50
	r, err := newRunner(Scenario{
		N1:         n,
		SMax:       n,
		Seed:       5,
		Params:     p,
		Policy:     baselines.NoRecovery{},
		FitSamples: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.ln.belief {
		r.ln.belief[i] = float64(i) / n
	}
	r.step(1) // size the per-step observation lane
	t1 := 2
	if avg := testing.AllocsPerRun(100, func() {
		r.step(t1)
		t1++
	}); avg != 0 {
		t.Fatalf("a step over %d belief lanes allocates %v per run, want 0", n, avg)
	}
}

// TestSortIndicesByBelief checks the candidate sort against the stable
// descending order the node-pointer sort produced: ties must keep index
// (i.e. node) order, because recovery scheduling order feeds the rng
// stream.
func TestSortIndicesByBelief(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		belief := make([]float64, n)
		for i := range belief {
			// Coarse values force ties.
			belief[i] = float64(rng.Intn(4)) / 4
		}
		idx := make([]int32, n)
		want := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			return belief[want[a]] > belief[want[b]]
		})
		sortIndicesByBelief(idx, belief)
		for i := range idx {
			if idx[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v (beliefs %v)", trial, idx, want, belief)
			}
		}
	}
}
