package recovery_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/recovery"
)

// goldenAlg1Path holds Algorithm 1 searches written by commit 156af8b, the
// last commit whose objective replayed a float tape of the Seed+1 stream
// one candidate at a time. Every later commit must reproduce them bit for
// bit: the learned strategies are a byte contract.
const goldenAlg1Path = "testdata/golden-alg1-156af8b.json"

var updateGoldenAlg1 = flag.Bool("update-golden-alg1", false,
	"rewrite "+goldenAlg1Path+" from this build (only ever run on the commit the file is named after)")

// goldenAlg1 is one search: Theta and Value as Float64bits, the evaluation
// count, and each trace point's evaluation count and best value (Elapsed is
// wall-clock and not recorded).
type goldenAlg1 struct {
	Name        string
	Theta       []uint64
	Value       uint64
	Evaluations int
	TraceEvals  []int
	TraceBest   []uint64
}

// goldenAlg1Runs runs Algorithm 1 for every optimizer, on the evaluation
// model and a crash-heavy one, at ΔR ∈ {1, 2, 15, ∞} and (M, H) ∈ {(1, 1),
// (7, 37), (25, 100)}. The budget is 120, so CEM's population of 100 leaves
// a 20-evaluation refinement tail; BO gets 60, which still covers its
// initial batch and its one-at-a-time acquisition loop, whose Gaussian
// process fits would otherwise take most of the run.
func goldenAlg1Runs(t *testing.T) []goldenAlg1 {
	t.Helper()
	crashy := nodemodel.DefaultParams()
	crashy.PA, crashy.PC1, crashy.PC2, crashy.PU, crashy.Eta = 0.3, 0.01, 0.05, 0.05, 3
	models := []struct {
		name string
		p    nodemodel.Params
	}{{"eval", nodemodel.DefaultParams()}, {"crashy", crashy}}
	var out []goldenAlg1
	for _, m := range models {
		for _, deltaR := range []int{1, 2, 15, recovery.InfiniteDeltaR} {
			for _, mh := range [][2]int{{1, 1}, {7, 37}, {25, 100}} {
				for _, method := range []string{"cem", "de", "spsa", "bo", "random"} {
					o, _ := opt.ByName(method)
					budget := 120
					if method == "bo" {
						budget = 60
					}
					name := fmt.Sprintf("%s/dR=%d/M=%d/H=%d/%s", m.name, deltaR, mh[0], mh[1], method)
					res, err := recovery.Algorithm1(context.Background(), m.p, recovery.Algorithm1Config{
						DeltaR: deltaR, Optimizer: o, Budget: budget,
						Episodes: mh[0], Horizon: mh[1], Seed: 50, Workers: 2,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					g := goldenAlg1{
						Name:        name,
						Value:       math.Float64bits(res.Search.Value),
						Evaluations: res.Search.Evaluations,
					}
					for _, v := range res.Search.Theta {
						g.Theta = append(g.Theta, math.Float64bits(v))
					}
					for _, p := range res.Search.Trace {
						g.TraceEvals = append(g.TraceEvals, p.Evaluations)
						g.TraceBest = append(g.TraceBest, math.Float64bits(p.Best))
					}
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// TestGoldenParentAlgorithm1 compares every search bit for bit with what
// the golden commit produced.
func TestGoldenParentAlgorithm1(t *testing.T) {
	got := goldenAlg1Runs(t)
	if *updateGoldenAlg1 {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAlg1Path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenAlg1Path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenAlg1
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d searches, this build has %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("search %d is %s, golden file has %s", i, g.Name, w.Name)
		}
		if g.Value != w.Value || g.Evaluations != w.Evaluations || !slices.Equal(g.Theta, w.Theta) {
			t.Errorf("%s: value %x, %d evaluations, theta %x; golden %x, %d, %x",
				g.Name, g.Value, g.Evaluations, g.Theta, w.Value, w.Evaluations, w.Theta)
		}
		if !slices.Equal(g.TraceEvals, w.TraceEvals) || !slices.Equal(g.TraceBest, w.TraceBest) {
			t.Errorf("%s: trace (%v, %x), golden (%v, %x)",
				g.Name, g.TraceEvals, g.TraceBest, w.TraceEvals, w.TraceBest)
		}
	}
}
