package emulation

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// goldenPath holds Metrics written by commit 4964060 (the last commit whose
// step drew through math/rand.Rand and the binary-search inverse-CDF). Every
// later commit must reproduce them with == on every field: the emulation's
// draw values and draw order are a byte contract, not a statistical one.
const goldenPath = "testdata/golden-4964060.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite "+goldenPath+" from this build (only ever run on the commit the file is named after)")

type goldenEntry struct {
	Name    string
	Metrics Metrics
}

// goldenGrid is a grid that reaches every draw site of the step: the four
// built-in policies (calendar recoveries, threshold recoveries, the
// observation-driven and the CMDP-sampled AddNode), a BTR window of none,
// short and long, a small and a large initial system, and a node model at
// the evaluation values and at a crash-heavy setting that forces evictions
// (pool recycling, lane compaction) and additions (spawn phase draws).
func goldenGrid(t *testing.T) (names []string, scenarios []Scenario) {
	t.Helper()
	fitSeed := FitStreamSeed(99)
	fits, err := NewFitSet(2000, fitSeed)
	if err != nil {
		t.Fatal(err)
	}
	evaluation := nodemodel.DefaultParams()
	crashy := nodemodel.DefaultParams()
	crashy.PC1 = 0.02
	crashy.PC2 = 0.1
	crashy.PU = 0.05
	profiles := []struct {
		name   string
		params nodemodel.Params
	}{{"eval", evaluation}, {"crashy", crashy}}
	for _, prof := range profiles {
		for _, deltaR := range []int{recovery.InfiniteDeltaR, 5, 15} {
			// The thresholds come from the evaluation model for both
			// profiles: the grid pins draws, not control quality, and the
			// golden commit cannot solve the crash-heavy stationary problem.
			dp, err := recovery.SolveDP(evaluation, recovery.DPConfig{DeltaR: deltaR, GridSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			for _, n1 := range []int{3, 9} {
				model, err := cmdp.NewBinomialModel(13, DefaultThreshold(n1), 0.9, 0.97, 0)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := cmdp.Solve(model)
				if err != nil {
					t.Fatal(err)
				}
				tol, err := baselines.NewTolerance(&dp.ThresholdStrategy, rep)
				if err != nil {
					t.Fatal(err)
				}
				policies := []struct {
					name string
					pol  baselines.Policy
				}{
					{"NO-RECOVERY", baselines.NoRecovery{}},
					{"PERIODIC", baselines.Periodic{}},
					{"PERIODIC-ADAPTIVE", baselines.PeriodicAdaptive{TargetN: 13}},
					{"TOLERANCE", tol},
				}
				for _, p := range policies {
					for seed := int64(1); seed <= 4; seed++ {
						names = append(names, fmt.Sprintf("%s/dR=%d/N1=%d/%s/seed=%d",
							prof.name, deltaR, n1, p.name, seed))
						scenarios = append(scenarios, Scenario{
							N1:      n1,
							DeltaR:  deltaR,
							Steps:   300,
							Seed:    seed,
							Params:  prof.params,
							Policy:  p.pol,
							Fits:    fits,
							FitSeed: fitSeed,
						})
					}
				}
			}
		}
	}
	return names, scenarios
}

// TestGoldenParentMetrics replays the golden grid through one reused Runner
// (the fleet's worker-resident path) and compares every metric bit for bit
// with what the parent commit produced.
func TestGoldenParentMetrics(t *testing.T) {
	names, scenarios := goldenGrid(t)
	got := make([]goldenEntry, len(scenarios))
	r := NewRunner()
	var evictions, additions, intrusions, recoveries int
	for i, s := range scenarios {
		m, err := r.RunInto(s)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got[i] = goldenEntry{Name: names[i], Metrics: m}
		evictions += m.Evictions
		additions += m.Additions
		intrusions += m.Intrusions
		recoveries += m.Recoveries
	}
	if evictions == 0 || additions == 0 || intrusions == 0 || recoveries == 0 {
		t.Fatalf("grid misses a draw site: %d evictions, %d additions, %d intrusions, %d recoveries",
			evictions, additions, intrusions, recoveries)
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: metrics differ from commit 4964060:\n got %+v\nwant %+v",
				got[i].Name, got[i].Metrics, want[i].Metrics)
		}
	}
}
