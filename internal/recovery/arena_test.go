package recovery

import (
	"testing"

	"tolerance/internal/nodemodel"
)

// TestDPArenaReuseBitIdentical is the arena's correctness contract: a
// sweep of distinct (DeltaR, params) problems solved through one shared
// arena — each solve inheriting the previous solve's slabs — must produce
// solutions bit-identical to fresh-scratch SolveDP. Exact equality on
// every output field, because cached DP solutions feed the fleet's
// byte-stability guarantees.
func TestDPArenaReuseBitIdentical(t *testing.T) {
	arena := NewArena()
	// pa starts at 0.1: the stationary value iteration does not converge
	// below ~0.1 regardless of scratch source (a solver property, equally
	// visible through SolveDP), and the sweep's point is arena-vs-fresh
	// equality, not convergence range.
	for _, deltaR := range []int{1, 2, 5, 25, InfiniteDeltaR} {
		for _, pa := range []float64{0.1, 0.2, 0.3} {
			p := nodemodel.DefaultParams()
			p.PA = pa
			cfg := DPConfig{DeltaR: deltaR, GridSize: 200}

			shared, err := SolveDPWith(p, cfg, arena)
			if err != nil {
				t.Fatalf("deltaR=%d pa=%v: shared-arena solve: %v", deltaR, pa, err)
			}
			fresh, err := SolveDP(p, cfg)
			if err != nil {
				t.Fatalf("deltaR=%d pa=%v: fresh solve: %v", deltaR, pa, err)
			}

			if shared.AvgCost != fresh.AvgCost {
				t.Errorf("deltaR=%d pa=%v: AvgCost %v != %v", deltaR, pa, shared.AvgCost, fresh.AvgCost)
			}
			if len(shared.Thresholds) != len(fresh.Thresholds) {
				t.Fatalf("deltaR=%d pa=%v: %d thresholds, want %d",
					deltaR, pa, len(shared.Thresholds), len(fresh.Thresholds))
			}
			for i := range shared.Thresholds {
				if shared.Thresholds[i] != fresh.Thresholds[i] {
					t.Errorf("deltaR=%d pa=%v: threshold %d: %v != %v",
						deltaR, pa, i, shared.Thresholds[i], fresh.Thresholds[i])
				}
			}
		}
	}
}

// TestDPSolutionNotArenaBacked pins the aliasing contract SolveDPWith
// documents: a later solve on the same arena must not mutate an earlier
// solve's outputs (solutions escape into long-lived caches).
func TestDPSolutionNotArenaBacked(t *testing.T) {
	arena := NewArena()
	p := nodemodel.DefaultParams()
	cfg := DPConfig{DeltaR: 10, GridSize: 150}
	first, err := SolveDPWith(p, cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	avg, th0 := first.AvgCost, first.Thresholds[0]

	p2 := nodemodel.DefaultParams()
	p2.PA = 0.42
	if _, err := SolveDPWith(p2, DPConfig{DeltaR: InfiniteDeltaR, GridSize: 150}, arena); err != nil {
		t.Fatal(err)
	}
	if first.AvgCost != avg || first.Thresholds[0] != th0 {
		t.Fatal("second solve on the shared arena mutated the first solution")
	}
}

// TestDPArenaResolveZeroAlloc guards the extension hot path the fleet's
// pooled arenas exist for: once an arena has been sized and a ladder's
// storage has grown, re-preparing the stencils and climbing the ladder back
// to the same depth allocates nothing.
func TestDPArenaResolveZeroAlloc(t *testing.T) {
	l, err := NewLadder(nodemodel.DefaultParams(), 200)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	l.Extend(8, arena) // size the arena and the ladder's storage

	if avg := testing.AllocsPerRun(20, func() {
		// Back to depth 0, keeping the storage: U_0 = 1, no stages.
		for i := range l.u {
			l.u[i] = 1
		}
		l.tau, l.e = l.tau[:0], l.e[:0]
		l.Extend(8, arena)
	}); avg != 0 {
		t.Fatalf("warm ladder extension on a reused arena allocates %v per run, want 0", avg)
	}
	if l.Depth() != 8 {
		t.Fatalf("ladder depth %d, want 8", l.Depth())
	}
}
