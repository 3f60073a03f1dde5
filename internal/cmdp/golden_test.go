package cmdp

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// goldenSolversPath holds solver outputs written by commit f6a64b7, the last
// commit whose stationary DP bisected on rho, whose window induction kept
// every stage's value table and whose binomial kernel priced each entry with
// its own log-gamma calls. Every later commit must reproduce the exact
// entries bit for bit, the Fig 6 MTTF entries excepted (mttfTolerance); the
// stationary entries keep their thresholds bit for bit and their average
// cost within the value iteration's tolerance.
const goldenSolversPath = "testdata/golden-solvers-f6a64b7.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite "+goldenSolversPath+" from this build (only ever run on the commit the file is named after)")

// goldenSolvers is the file's layout.
type goldenSolvers struct {
	// Exact entries must match bit for bit.
	Exact []goldenExact
	// Stationary entries are Delta_R = infinity DP solves.
	Stationary []goldenStationary
}

// goldenExact is one output held bit for bit: float64 bit patterns, or a
// string output (an error, a kernel fingerprint) held byte for byte.
type goldenExact struct {
	Name string
	Bits []uint64 `json:",omitempty"`
	Text string   `json:",omitempty"`
}

type goldenStationary struct {
	Name       string
	Thresholds []uint64
	Rho        float64
}

// stationaryRhoTolerance bounds how far the stationary average cost may move
// from the golden commit's: both solvers stop inside the stopping-value
// iteration's 1e-10 tolerance, not at the same float.
const stationaryRhoTolerance = 1e-9

// mttfTolerance bounds the relative move of a Fig 6 MTTF entry from the
// golden commit's, which solved the hitting times by pivoted Gaussian
// elimination where this build substitutes forward over the no-recovery
// rows. The entries moved by at most 5e-14; TestMTTFMatchesExactOracle
// holds this build to 1e-14 of a 512-bit reference.
const mttfTolerance = 1e-13

func floatBits(values ...float64) []uint64 {
	bits := make([]uint64, len(values))
	for i, v := range values {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// goldenSolverRuns solves every golden problem with this build: finite-window
// DP solves over pA x eta x Delta_R x grid size, the Delta_R = infinity solves
// of the benchmark's stationary sweep, Algorithm 2 on the binomial kernel over
// smax x q (with the kernel's fingerprint, which hashes every f_S entry), and
// the Fig 6 MTTF and reliability curves.
//
// It also returns the model of every LP entry that solved, by name: those
// entries are held to the oracle's tolerances, not bit for bit.
func goldenSolverRuns(t *testing.T) (goldenSolvers, map[string]goldenLP) {
	t.Helper()
	var out goldenSolvers
	lps := map[string]goldenLP{}
	exact := func(name string, err error, values ...float64) {
		e := goldenExact{Name: name}
		if err != nil {
			e.Text = err.Error()
		} else {
			e.Bits = floatBits(values...)
		}
		out.Exact = append(out.Exact, e)
	}
	params := func(pa, eta float64) nodemodel.Params {
		p := nodemodel.DefaultParams()
		p.PA, p.Eta = pa, eta
		return p
	}

	for _, pa := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		for _, eta := range []float64{1, 2, 3, 6} {
			for _, deltaR := range []int{1, 2, 5, 15, 50} {
				for _, grid := range []int{300, 500} {
					sol, err := recovery.SolveDP(params(pa, eta), recovery.DPConfig{DeltaR: deltaR, GridSize: grid})
					name := fmt.Sprintf("dp/pa=%v/eta=%v/dr=%d/g=%d", pa, eta, deltaR, grid)
					if err != nil {
						exact(name, err)
						continue
					}
					exact(name, nil, append([]float64{sol.AvgCost}, sol.Thresholds...)...)
				}
			}
		}
	}

	for _, pa := range []float64{0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4} {
		for _, eta := range []float64{2, 3, 4, 6} {
			name := fmt.Sprintf("dp/pa=%v/eta=%v/dr=inf", pa, eta)
			sol, err := recovery.SolveDP(params(pa, eta), recovery.DPConfig{DeltaR: recovery.InfiniteDeltaR})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out.Stationary = append(out.Stationary, goldenStationary{
				Name: name, Thresholds: floatBits(sol.Thresholds...), Rho: sol.AvgCost,
			})
		}
	}

	for _, smax := range []int{1, 2, 13, 64, 128} {
		for _, q := range []float64{0, 1e-6, 0.5, 0.95, 1} {
			name := fmt.Sprintf("lp/smax=%d/q=%v", smax, q)
			m, err := NewBinomialModel(smax, min(2, smax-1), 0.9, q, 0)
			if err != nil {
				exact(name, err)
				continue
			}
			out.Exact = append(out.Exact, goldenExact{Name: name + "/fingerprint", Text: m.Digest().String()})
			sol, err := Solve(m)
			if err != nil {
				exact(name, err)
				continue
			}
			values := append([]float64{sol.AvgNodes, sol.Availability}, sol.Policy...)
			values = append(values, sol.Occupancy...)
			exact(name, nil, values...)
			lps[name] = goldenLP{m: m, q: q}
		}
	}

	for _, n1 := range []int{3, 13, 64} {
		for _, q := range []float64{0.5, 0.9, 0.999} {
			name := fmt.Sprintf("fig6/n1=%d/q=%v", n1, q)
			mttf, err := MTTF(n1, 1, 0, q)
			if err != nil {
				exact(name+"/mttf", err)
			} else {
				exact(name+"/mttf", nil, mttf)
			}
			rel, err := Reliability(n1, 1, 0, 40, q)
			exact(name+"/reliability", err, rel...)
		}
	}
	return out, lps
}

// goldenLP is the model behind one LP entry of the golden file.
type goldenLP struct {
	m *Model
	q float64
}

// solution decodes an LP entry's values: AvgNodes, Availability, the policy
// and the occupancy rows.
func (g goldenLP) solution(bits []uint64) (*Solution, bool) {
	n := g.m.SMax + 1
	if len(bits) != 2+3*n {
		return nil, false
	}
	v := make([]float64, len(bits))
	for i, b := range bits {
		v[i] = math.Float64frombits(b)
	}
	return &Solution{AvgNodes: v[0], Availability: v[1], Policy: v[2 : 2+n], Occupancy: v[2+n:]}, true
}

// TestGoldenParentSolvers compares this build's solver outputs with the ones
// the golden commit wrote: == on every float of the finite-window DP, the
// CMDP transition kernel and the Fig 6 reliability curves; == on every
// stationary threshold and |Δrho| <= 1e-9 on the stationary average cost;
// each Fig 6 MTTF within mttfTolerance relative. The golden commit solved
// the CMDP LP on a tableau, and this build walks deterministic policies,
// so an LP entry keeps its error text byte for byte and is
// otherwise held to the tableau oracle's tolerances (compareSolutions):
// the policy within 1e-6 outside tied states, AvgNodes and Availability
// within valueTolerance(q) — 1e-9 at q <= 0.95 and 2e-4 at q = 1, where only
// the 1e-9 smoothing mixes the chain and the two solvers' optima differ by
// up to 4.5e-7 with both stationary to 1e-14.
func TestGoldenParentSolvers(t *testing.T) {
	got, lps := goldenSolverRuns(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSolversPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenSolversPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenSolvers
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Exact) != len(got.Exact) || len(want.Stationary) != len(got.Stationary) {
		t.Fatalf("golden file has %d exact / %d stationary entries, this build %d / %d",
			len(want.Exact), len(want.Stationary), len(got.Exact), len(got.Stationary))
	}
	for i, g := range got.Exact {
		w := want.Exact[i]
		if lp, ok := lps[g.Name]; ok && g.Name == w.Name && w.Text == "" {
			gotSol, _ := lp.solution(g.Bits)
			wantSol, ok := lp.solution(w.Bits)
			if !ok {
				t.Errorf("%s: commit f6a64b7 has %d values, want %d", w.Name, len(w.Bits), len(g.Bits))
				continue
			}
			compareSolutions(t, g.Name+" (vs commit f6a64b7)", lp.m, lp.q, gotSol, wantSol)
			continue
		}
		if strings.HasSuffix(g.Name, "/mttf") && g.Name == w.Name && len(g.Bits) == 1 && len(w.Bits) == 1 {
			got, want := math.Float64frombits(g.Bits[0]), math.Float64frombits(w.Bits[0])
			if d := math.Abs(got-want) / want; got != want && !(d <= mttfTolerance) {
				t.Errorf("%s: %v, commit f6a64b7 %v (relative %g)", g.Name, got, want, d)
			}
			continue
		}
		if g.Name != w.Name || g.Text != w.Text || !slices.Equal(g.Bits, w.Bits) {
			t.Errorf("%s: differs from commit f6a64b7:\n got %v %q\nwant %v %q", g.Name, g.Bits, g.Text, w.Bits, w.Text)
		}
	}
	for i, g := range got.Stationary {
		w := want.Stationary[i]
		if g.Name != w.Name || !slices.Equal(g.Thresholds, w.Thresholds) {
			t.Errorf("%s: thresholds %v, commit f6a64b7 %v", g.Name, g.Thresholds, w.Thresholds)
		}
		if d := math.Abs(g.Rho - w.Rho); d > stationaryRhoTolerance {
			t.Errorf("%s: rho %v, commit f6a64b7 %v (|Δ| = %g)", g.Name, g.Rho, w.Rho, d)
		}
	}
}
