package emulation

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"tolerance/internal/nodemodel"
)

// randBeliefParams draws a random but well-formed node model for the
// kernel property tests: probabilities in (0, 1) with enough spread to hit
// both branches of the prediction (Wait survival mass can approach zero
// when the crash probabilities approach one).
func randBeliefParams(rng *rand.Rand) nodemodel.Params {
	p := nodemodel.DefaultParams()
	p.PA = rng.Float64()
	p.PC1 = rng.Float64()
	p.PC2 = rng.Float64()
	p.PU = rng.Float64()
	return p
}

// TestBeliefLanesMatchScalar is the batched kernel's correctness contract:
// across randomized parameters, likelihood tables, beliefs, actions and
// observations, updateBeliefLanes must produce bit-identical beliefs to
// the scalar UpdateBeliefFitted recursion it replaced — exact float64
// equality, not a tolerance, because the fleet's byte-stability guarantees
// sit on top of it.
func TestBeliefLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const support = 7
	for trial := 0; trial < 200; trial++ {
		p := randBeliefParams(rng)
		n := 1 + rng.Intn(24)
		zhRow := make([]float64, support)
		zcRow := make([]float64, support)
		for o := range zhRow {
			zhRow[o] = rng.Float64()
			zcRow[o] = rng.Float64()
		}
		if trial%5 == 0 {
			// Degenerate likelihood rows exercise the den <= 0 carry-over.
			o := rng.Intn(support)
			zhRow[o], zcRow[o] = 0, 0
		}

		belief := make([]float64, n)
		action := make([]uint8, n)
		zhLane := make([]float64, n)
		zcLane := make([]float64, n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			belief[i] = rng.Float64()
			act := nodemodel.Wait
			if rng.Intn(3) == 0 {
				act = nodemodel.Recover
			}
			action[i] = uint8(act)
			obs := rng.Intn(support)
			zhLane[i] = zhRow[obs]
			zcLane[i] = zcRow[obs]
			want[i] = UpdateBeliefFitted(p, zhRow, zcRow, belief[i], act, obs)
		}

		updateBeliefLanes(p, belief, action, zhLane, zcLane)
		for i := 0; i < n; i++ {
			if belief[i] != want[i] {
				t.Fatalf("trial %d node %d: lane belief %v, scalar %v (params %+v)",
					trial, i, belief[i], want[i], p)
			}
		}
	}
}

// TestBeliefLanesZeroAlloc pins the batched kernel's allocation-free
// contract — it runs once per simulated step on the fleet hot path, where
// the per-scenario allocation budget is already accounted to the runner.
func TestBeliefLanesZeroAlloc(t *testing.T) {
	p := nodemodel.DefaultParams()
	const n = 50
	belief := make([]float64, n)
	action := make([]uint8, n)
	zh := make([]float64, n)
	zc := make([]float64, n)
	for i := range belief {
		belief[i] = float64(i) / n
		zh[i] = 0.3
		zc[i] = 0.6
	}
	if avg := testing.AllocsPerRun(100, func() {
		updateBeliefLanes(p, belief, action, zh, zc)
	}); avg != 0 {
		t.Fatalf("updateBeliefLanes allocates %v per run, want 0", avg)
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

// BenchmarkBeliefBatch compares the scalar recursion with the batched lane
// kernel at fleet-realistic node counts (paper grids run 5-15 nodes;
// 50 stresses the gather-heavy regime).
func BenchmarkBeliefBatch(b *testing.B) {
	p := nodemodel.DefaultParams()
	const support = 7
	zhRow := make([]float64, support)
	zcRow := make([]float64, support)
	for o := range zhRow {
		zhRow[o] = 1 / float64(support)
		zcRow[o] = float64(o+1) * 2 / float64(support*(support+1))
	}
	for _, n := range []int{5, 15, 50} {
		rng := rand.New(rand.NewSource(3))
		belief := make([]float64, n)
		action := make([]uint8, n)
		obs := make([]int, n)
		zh := make([]float64, n)
		zc := make([]float64, n)
		for i := 0; i < n; i++ {
			belief[i] = rng.Float64()
			obs[i] = rng.Intn(support)
			zh[i] = zhRow[obs[i]]
			zc[i] = zcRow[obs[i]]
		}
		b.Run("scalar/n="+strconv.Itoa(n), func(b *testing.B) {
			work := make([]float64, n)
			for it := 0; it < b.N; it++ {
				copy(work, belief)
				for i := 0; i < n; i++ {
					work[i] = UpdateBeliefFitted(p, zhRow, zcRow, work[i], nodemodel.Wait, obs[i])
				}
			}
		})
		b.Run("lanes/n="+strconv.Itoa(n), func(b *testing.B) {
			work := make([]float64, n)
			for it := 0; it < b.N; it++ {
				copy(work, belief)
				updateBeliefLanes(p, work, action, zh, zc)
			}
		})
	}
}
