package tolerance

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"tolerance/internal/ppo"
)

// goldenLearnedPath holds learned Solve outputs written by commit a5cb108,
// the last commit whose Algorithm 1 objective reseeded math/rand and rebuilt
// the transition row and belief constants on every step, and whose PPO
// update allocated a network cache per sample. Every later commit must
// reproduce them with == on every float: the learned strategies are a byte
// contract, not a statistical one.
const goldenLearnedPath = "testdata/golden-learned-a5cb108.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite "+goldenLearnedPath+" from this build (only ever run on the commit the file is named after)")

type goldenLearned struct {
	Name         string
	ExpectedCost float64
	Thresholds   []float64 `json:",omitempty"`
	// Probabilities is P[Recover] of a PPO policy on goldenBeliefs x window
	// positions 0..goldenWindow-1, belief-major.
	Probabilities []float64 `json:",omitempty"`
}

const (
	goldenBeliefs = 21
	goldenWindow  = 15
)

// goldenLearnedRuns solves every golden problem with this build: the five
// Algorithm 1 optimizers at a small budget over Delta_R x two node models
// (the evaluation model and a crash-heavy one, whose episodes end early),
// and PPO at two iterations on the evaluation model.
func goldenLearnedRuns(t *testing.T) []goldenLearned {
	t.Helper()
	ctx := context.Background()
	models := []struct {
		name  string
		model NodeModel
	}{
		{"eval", DefaultNodeModel()},
		{"crashy", NodeModel{PA: 0.3, PC1: 0.01, PC2: 0.05, PU: 0.05, Eta: 3}},
	}
	var out []goldenLearned
	for _, m := range models {
		for _, deltaR := range []int{InfiniteDeltaR, 5, 15} {
			for _, method := range []string{OptimizerCEM, OptimizerDE, OptimizerSPSA, OptimizerBO, OptimizerRandom} {
				name := fmt.Sprintf("%s/dR=%d/%s", m.name, deltaR, method)
				sol, err := Solve(ctx, RecoveryProblem{Model: m.model, DeltaR: deltaR},
					WithMethod(method), WithBudget(30), WithSeed(7), WithWorkers(2))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, goldenLearned{
					Name:         name,
					ExpectedCost: sol.Recovery.ExpectedCost,
					Thresholds:   sol.Recovery.Thresholds,
				})
			}
		}
	}
	for _, deltaR := range []int{InfiniteDeltaR, 15} {
		name := fmt.Sprintf("eval/dR=%d/%s", deltaR, MethodPPO)
		sol, err := Solve(ctx, RecoveryProblem{Model: DefaultNodeModel(), DeltaR: deltaR},
			WithMethod(MethodPPO), WithBudget(2), WithSeed(7), WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		policy := sol.Recovery.inner.(*ppo.Policy)
		var probs []float64
		for i := 0; i < goldenBeliefs; i++ {
			for pos := 0; pos < goldenWindow; pos++ {
				probs = append(probs, policy.Probabilities(float64(i)/(goldenBeliefs-1), pos)[1])
			}
		}
		out = append(out, goldenLearned{
			Name:          name,
			ExpectedCost:  sol.Recovery.ExpectedCost,
			Probabilities: probs,
		})
	}
	return out
}

// TestGoldenParentLearned compares every learned output bit for bit with
// what the golden commit produced.
func TestGoldenParentLearned(t *testing.T) {
	got := goldenLearnedRuns(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLearnedPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenLearnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenLearned
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, this build has %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("entry %d is %s, golden file has %s", i, g.Name, w.Name)
		}
		if g.ExpectedCost != w.ExpectedCost {
			t.Errorf("%s: ExpectedCost %v, golden %v", g.Name, g.ExpectedCost, w.ExpectedCost)
		}
		if !slices.Equal(g.Thresholds, w.Thresholds) {
			t.Errorf("%s: thresholds %v, golden %v", g.Name, g.Thresholds, w.Thresholds)
		}
		if !slices.Equal(g.Probabilities, w.Probabilities) {
			t.Errorf("%s: probabilities differ from the golden commit's", g.Name)
		}
	}
}
