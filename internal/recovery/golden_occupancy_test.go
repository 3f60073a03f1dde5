package recovery_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"tolerance/internal/fleet"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// goldenOccupancyPath holds closed-loop shares written by commit 3633762,
// the last commit whose OccupancyTable walked every BTR window from the
// renewal distribution. Every later commit must reproduce them bit for
// bit: q, which sets the CMDP's transition rows, is a byte contract.
const goldenOccupancyPath = "testdata/golden-occupancy-3633762.json"

var updateGoldenOccupancy = flag.Bool("update-golden-occupancy", false,
	"rewrite "+goldenOccupancyPath+" from this build (only ever run on the commit the file is named after)")

// goldenOccupancyGrid is the fleet's Problem 1 grid (strategies'
// dpGridSize), the grid the occupancy table evaluates on.
const goldenOccupancyGrid = 300

// goldenShares is one evaluation: the strategy, its DeltaR, and either the
// three shares as Float64bits (CompromisedWaiting, CrashHazard,
// RecoveryFrequency) or the error text.
type goldenShares struct {
	Strategy string
	DeltaR   int
	Bits     []uint64 `json:",omitempty"`
	Err      string   `json:",omitempty"`
}

// goldenOccupancyModel is one node model's entry.
type goldenOccupancyModel struct {
	Name   string
	Shares []goldenShares
}

// goldenOccupancyName names a model's entry.
func goldenOccupancyName(p nodemodel.Params) string {
	return fmt.Sprintf("pA=%v/pC1=%v/pC2=%v/pU=%v/eta=%v", p.PA, p.PC1, p.PC2, p.PU, p.Eta)
}

// goldenOccupancyModels lists the node models q is computed for: the
// benchmark's wide suite (six attack rates, the Table 8 and examples/scada
// crash profiles) and every cell of the built-in suites, each once, in
// first-seen order.
func goldenOccupancyModels() []nodemodel.Params {
	var out []nodemodel.Params
	seen := map[string]bool{}
	add := func(pa, pc1, pc2, pu, eta float64) {
		p := nodemodel.DefaultParams()
		p.PA, p.PC1, p.PC2, p.PU, p.Eta = pa, pc1, pc2, pu, eta
		if name := goldenOccupancyName(p); !seen[name] {
			seen[name] = true
			out = append(out, p)
		}
	}
	def := nodemodel.DefaultParams()
	for _, pa := range []float64{0.05, 0.08, 0.1, 0.15, 0.2, 0.3} {
		for _, cp := range [][2]float64{{1e-5, 1e-3}, {5e-3, 2e-2}} {
			add(pa, cp[0], cp[1], def.PU, def.Eta)
		}
	}
	for _, s := range fleet.Builtin() {
		for _, c := range s.Cells() {
			add(c.PA, c.PC1, c.PC2, c.PU, c.Eta)
		}
	}
	return out
}

// goldenRandomStrategy is one of the random-threshold evaluations: a
// strategy of a random DeltaR whose first run positions share one random
// threshold and whose other positions draw their own.
type goldenRandomStrategy struct {
	model  int
	deltaR int
	s      *recovery.ThresholdStrategy
}

// goldenRandomStrategies draws the 50 random-threshold strategies, spread
// over the models.
func goldenRandomStrategies(models int) []goldenRandomStrategy {
	rng := rand.New(rand.NewSource(4801))
	out := make([]goldenRandomStrategy, 50)
	for i := range out {
		dr := 1 + rng.Intn(60)
		if rng.Intn(10) == 0 {
			dr = recovery.InfiniteDeltaR
		}
		th := make([]float64, recovery.ThresholdDim(dr))
		run, lead := rng.Intn(len(th)+1), rng.Float64()
		for k := range th {
			th[k] = lead
			if k >= run {
				th[k] = rng.Float64()
			}
		}
		out[i] = goldenRandomStrategy{
			model: rng.Intn(models), deltaR: dr,
			s: &recovery.ThresholdStrategy{Thresholds: th, DeltaR: dr},
		}
	}
	return out
}

// goldenOccupancyRun evaluates one model on one table: the ladder's window
// strategy at every DeltaR in 1..60 in ascending order, the stationary DP
// strategy at DeltaR = infinity, then the random strategies drawn for it.
func goldenOccupancyRun(p nodemodel.Params, random []goldenRandomStrategy) (goldenOccupancyModel, error) {
	out := goldenOccupancyModel{Name: goldenOccupancyName(p)}
	table, err := recovery.NewOccupancyTable(p)
	if err != nil {
		return out, err
	}
	record := func(name string, s recovery.Strategy, dr int) {
		e := goldenShares{Strategy: name, DeltaR: dr}
		if o, err := table.Shares(s, dr); err != nil {
			e.Err = err.Error()
		} else {
			e.Bits = []uint64{
				math.Float64bits(o.CompromisedWaiting),
				math.Float64bits(o.CrashHazard),
				math.Float64bits(o.RecoveryFrequency),
			}
		}
		out.Shares = append(out.Shares, e)
	}
	ladder, err := recovery.NewLadder(p, goldenOccupancyGrid)
	if err != nil {
		return out, err
	}
	for dr := 1; dr <= 60; dr++ {
		sol, err := ladder.Window(dr)
		if err != nil {
			return out, err
		}
		record("ladder", &sol.ThresholdStrategy, dr)
	}
	sol, err := recovery.SolveDP(p, recovery.DPConfig{DeltaR: recovery.InfiniteDeltaR, GridSize: goldenOccupancyGrid})
	if err != nil {
		return out, err
	}
	record("stationary", &sol.ThresholdStrategy, recovery.InfiniteDeltaR)
	for i, r := range random {
		record(fmt.Sprintf("random-%d", i), r.s, r.deltaR)
	}
	return out, nil
}

// goldenOccupancyRuns evaluates every golden model, two at a time.
func goldenOccupancyRuns(t *testing.T) []goldenOccupancyModel {
	models := goldenOccupancyModels()
	random := make([][]goldenRandomStrategy, len(models))
	for _, r := range goldenRandomStrategies(len(models)) {
		random[r.model] = append(random[r.model], r)
	}
	out := make([]goldenOccupancyModel, len(models))
	errs := make([]error, len(models))
	next := make(chan int)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = goldenOccupancyRun(models[i], random[i])
			}
		}()
	}
	for i := range models {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", goldenOccupancyName(models[i]), err)
		}
	}
	return out
}

// goldenOccupancyJSON encodes the models with one evaluation a line.
func goldenOccupancyJSON(t *testing.T, models []goldenOccupancyModel) []byte {
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var b bytes.Buffer
	b.WriteString("[")
	for i, m := range models {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n {\"Name\": %s, \"Shares\": [", marshal(m.Name))
		for j, e := range m.Shares {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n  %s", marshal(e))
		}
		b.WriteString("\n ]}")
	}
	b.WriteString("\n]\n")
	return b.Bytes()
}

// TestGoldenParentOccupancy compares every closed-loop evaluation — the
// shares bit for bit, an error by its text — with what the golden commit
// produced.
func TestGoldenParentOccupancy(t *testing.T) {
	got := goldenOccupancyRuns(t)
	if *updateGoldenOccupancy {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenOccupancyPath, goldenOccupancyJSON(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenOccupancyPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenOccupancyModel
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d models, this build has %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("model %d is %s, golden file has %s", i, g.Name, w.Name)
		}
		if len(g.Shares) != len(w.Shares) {
			t.Errorf("%s: %d evaluations, golden file has %d", g.Name, len(g.Shares), len(w.Shares))
			continue
		}
		for j := range g.Shares {
			gs, ws := g.Shares[j], w.Shares[j]
			if gs.Strategy != ws.Strategy || gs.DeltaR != ws.DeltaR {
				t.Fatalf("%s: evaluation %d is %s at ΔR %d, golden file has %s at ΔR %d",
					g.Name, j, gs.Strategy, gs.DeltaR, ws.Strategy, ws.DeltaR)
			}
			if gs.Err != ws.Err || fmt.Sprint(gs.Bits) != fmt.Sprint(ws.Bits) {
				t.Errorf("%s %s ΔR %d: shares %x (err %q), golden %x (err %q)",
					g.Name, gs.Strategy, gs.DeltaR, gs.Bits, gs.Err, ws.Bits, ws.Err)
			}
		}
	}
}
