package tolerance

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"tolerance/internal/ppo"
	"tolerance/internal/recovery"
)

// goldenSolveColdPath holds Solve's outputs on the benchmark's solve-cold
// problem list (bench/inputs.go, full scale): 800 finite-Delta_R DP windows,
// 32 stationary DP solves, 180 CMDP LPs at smax 13-128 and the five learned
// methods, written by commit df41e20, whose cold solves allocated their
// kernels, scratch and three copies of every threshold vector. Every later
// commit must reproduce each entry's digest, which covers every float bit of
// the solution, public and inner.
const goldenSolveColdPath = "testdata/golden-solvecold-df41e20.json"

var updateGoldenSolveCold = flag.Bool("update-golden-solvecold", false,
	"rewrite "+goldenSolveColdPath+" from this build (only ever run on the commit the file is named after)")

// goldenCold is one problem's entry: the solve's error text, or the SHA-256
// of its outputs' float bits in a fixed order (solveColdDigest).
type goldenCold struct {
	Name   string
	Error  string `json:",omitempty"`
	Digest string `json:",omitempty"`
}

// solveColdItem is one problem of the list with the options it is solved
// under.
type solveColdItem struct {
	name    string
	problem Problem
	opts    []Option
}

// solveColdProblems is the solve-cold list in list order, with the learned
// methods at the benchmark's budgets on two fixed seeds' worth of options
// (PPO at one and two workers).
func solveColdProblems() []solveColdItem {
	var items []solveColdItem
	model := func(pa, eta float64) NodeModel {
		m := DefaultNodeModel()
		m.PA, m.Eta = pa, eta
		return m
	}
	for _, pa := range []float64{0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4} {
		for _, eta := range []float64{1, 2, 3, 6} {
			for dr := 5; dr <= 100; dr += 5 {
				items = append(items, solveColdItem{name: fmt.Sprintf("dp/pa=%v/eta=%v/dr=%d", pa, eta, dr),
					problem: RecoveryProblem{Model: model(pa, eta), DeltaR: dr}})
			}
		}
	}
	for _, pa := range []float64{0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4} {
		for _, eta := range []float64{2, 3, 4, 6} {
			items = append(items, solveColdItem{name: fmt.Sprintf("dp/pa=%v/eta=%v/dr=inf", pa, eta),
				problem: RecoveryProblem{Model: model(pa, eta), DeltaR: InfiniteDeltaR}})
		}
	}
	for _, smax := range []int{13, 24, 32, 48, 64, 80, 96, 112, 128} {
		for _, eps := range []float64{0.8, 0.85, 0.9, 0.95, 0.99} {
			for _, f := range []int{1, 2, 3, 4} {
				items = append(items, solveColdItem{name: fmt.Sprintf("lp/smax=%d/eps=%v/f=%d", smax, eps, f),
					problem: ReplicationProblem{SMax: smax, F: f, EpsilonA: eps, Q: 0.95}})
			}
		}
	}
	for i, l := range []struct {
		method  string
		budget  int
		workers int
	}{
		{OptimizerCEM, 100, 2}, {OptimizerDE, 100, 2}, {OptimizerSPSA, 100, 2}, {OptimizerBO, 50, 2},
		{MethodPPO, 2, 2}, {MethodPPO, 2, 1},
	} {
		items = append(items, solveColdItem{name: fmt.Sprintf("learned/%s/workers=%d", l.method, l.workers),
			problem: RecoveryProblem{Model: DefaultNodeModel(), DeltaR: 15},
			opts: []Option{WithMethod(l.method), WithBudget(l.budget), WithWorkers(l.workers),
				WithSeed(83*131 + int64(i) + 1)}})
	}
	return items
}

// solveColdDigest hashes every float of a solution, bit for bit: for a
// recovery strategy its cost, DeltaR, public thresholds and the inner
// strategy's (threshold vector or PPO's P[Recover] on goldenBeliefs x
// goldenWindow); for a replication strategy its objective, availability,
// public add probabilities and the inner LP solution's policy, objective,
// availability and occupancy measure (row after row: rho*(s, a) in state
// order, then action order).
func solveColdDigest(sol *Solution) string {
	h := sha256.New()
	put := func(values ...float64) {
		var b [8]byte
		for _, v := range values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if r := sol.Recovery; r != nil {
		put(r.ExpectedCost, float64(r.DeltaR))
		put(r.Thresholds...)
		switch inner := r.inner.(type) {
		case *recovery.ThresholdStrategy:
			put(float64(inner.DeltaR))
			put(inner.Thresholds...)
		case *ppo.Policy:
			for i := 0; i < goldenBeliefs; i++ {
				for pos := 0; pos < goldenWindow; pos++ {
					put(inner.Probabilities(float64(i)/(goldenBeliefs-1), pos)...)
				}
			}
		default:
			put(math.NaN())
		}
	}
	if r := sol.Replication; r != nil {
		put(r.ExpectedNodes, r.Availability)
		put(r.AddProbability...)
		put(r.inner.Policy...)
		put(r.inner.AvgNodes, r.inner.Availability)
		put(r.inner.Occupancy...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenParentSolveCold holds Solve on the solve-cold list to the
// digests the golden commit wrote: every float bit of every solution. Under
// the race detector it solves every seventh problem and the learned ones.
func TestGoldenParentSolveCold(t *testing.T) {
	ctx := context.Background()
	items := solveColdProblems()
	got := make([]goldenCold, len(items))
	for i, it := range items {
		if raceEnabled && !*updateGoldenSolveCold && i%7 != 0 && it.opts == nil {
			continue
		}
		got[i].Name = it.name
		sol, err := Solve(ctx, it.problem, it.opts...)
		if err != nil {
			got[i].Error = err.Error()
			continue
		}
		got[i].Digest = solveColdDigest(sol)
	}
	if *updateGoldenSolveCold {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSolveColdPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenSolveColdPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCold
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, this build %d", len(want), len(got))
	}
	for i, g := range got {
		if g.Name == "" {
			continue // skipped under the race detector
		}
		if w := want[i]; g != w {
			t.Errorf("entry %d: got %+v, commit df41e20 %+v", i, g, w)
		}
	}
}
