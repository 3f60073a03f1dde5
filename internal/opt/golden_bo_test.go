package opt

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// goldenBOPath holds BO searches written by commit 1e72cfd, the last
// commit that refit the Gaussian process from scratch every step and
// scored each candidate with an allocating predict. Every later commit
// must reproduce them bit for bit.
const goldenBOPath = "testdata/golden-bo-1e72cfd.json"

var updateGoldenBO = flag.Bool("update-golden-bo", false,
	"rewrite "+goldenBOPath+" from this build (only ever run on the commit the file is named after)")

// goldenBO is one search: Theta and Value as Float64bits, the evaluation
// count, and each trace point's evaluation count and best value (Elapsed is
// wall-clock and not recorded).
type goldenBO struct {
	Name        string
	Theta       []uint64
	Value       uint64
	Evaluations int
	TraceEvals  []int
	TraceBest   []uint64
}

// goldenBOCase is one BO configuration on one synthetic objective.
type goldenBOCase struct {
	name   string
	bo     BO
	dim    int
	budget int
	obj    func(theta []float64) float64
}

// goldenBOCases are the paths Algorithm 1's golden searches (budget 60,
// dimensions 1 and 14, default settings) do not reach:
//   - more points than MaxGPPoints, so selectGPPoints changes the set
//     (budget 200 at the default 160; MaxGPPoints 12 at budget 60);
//   - the jitter retry: a NoiseVar of 1e-300 vanishes beside the unit
//     signal variance, so a repeated point makes the unjittered factor
//     singular, and x ↦ x₀ puts the incumbent on the clamp01 boundary,
//     where probes repeat it;
//   - a NaN objective, whose acquisitions are all NaN, so no candidate
//     wins and every step evaluates the zero vector (repeated points
//     again, and a very long length scale makes every kernel entry 1);
//     and one that turns NaN only near its minimum but not at the zero
//     vector, so steps in which a candidate won come before the first in
//     which none does, and that step's zero vector is the best point;
//   - a constant objective, normalize's std < 1e-12 branch;
//   - dimensions 1, 2, 4 and 14.
//
// Each runs at workers 1 and 2. A jittered factor that fails too, and so
// BO's random-exploration step, is out of BO's reach: with its unit signal
// variance every kernel entry lies in [0, 1] or is NaN, and the jittered
// diagonal is at least 1 + 1e-6, far above the factorisation's rounding
// error. The gp tests reach that path with a signal variance that swallows
// the jitter.
func goldenBOCases() []goldenBOCase {
	linear := func(theta []float64) float64 { return theta[0] }
	corner := func(theta []float64) float64 { return theta[0] + theta[1] }
	noisy := func(theta []float64) float64 {
		s := 0.0
		for i, v := range theta {
			d := v - 0.3 - 0.04*float64(i)
			s += d * d
		}
		return s + hashNoise(theta)
	}
	return []goldenBOCase{
		{"sphere/d2/b200", BO{}, 2, 200, noisy},
		{"sphere/d4/max12/b60", BO{MaxGPPoints: 12}, 4, 60, noisy},
		{"sphere/d14/b100", BO{}, 14, 100, noisy},
		{"sphere/d1/b40", BO{InitialSamples: 3, Candidates: 64}, 1, 40, noisy},
		{"jitter/d1/b60", BO{NoiseVar: 1e-300}, 1, 60, linear},
		{"jitter/d2/b60", BO{NoiseVar: 1e-300}, 2, 60, corner},
		{"jitter/d1/max12/b60", BO{NoiseVar: 1e-300, MaxGPPoints: 12}, 1, 60, linear},
		{"jitter/d2/ls1e3/b200", BO{NoiseVar: 1e-300, LengthScale: 1e3}, 2, 200, linear},
		{"nan/d1/b40", BO{NoiseVar: 1e-300}, 1, 40, func([]float64) float64 { return math.NaN() }},
		{"nan/d2/lsInf/b40", BO{NoiseVar: 1e-300, LengthScale: math.Inf(1)}, 2, 40, func([]float64) float64 { return math.NaN() }},
		{"nan-late/d2/b60", BO{}, 2, 60, func(theta []float64) float64 {
			if theta[0] > 0 && theta[0] < 0.05 {
				return math.NaN()
			}
			return theta[0] + theta[1]
		}},
		{"const/d2/b40", BO{}, 2, 40, func([]float64) float64 { return 3 }},
		{"const/d4/tiny/b40", BO{NoiseVar: 1e-300}, 4, 40, func([]float64) float64 { return -1 }},
	}
}

func goldenBORuns(t *testing.T) []goldenBO {
	t.Helper()
	var out []goldenBO
	for _, c := range goldenBOCases() {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/w%d", c.name, workers)
			res, err := c.bo.Minimize(rand.New(rand.NewSource(52)), c.dim, each(c.obj), c.budget, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g := goldenBO{
				Name:        name,
				Value:       math.Float64bits(res.Value),
				Evaluations: res.Evaluations,
			}
			for _, v := range res.Theta {
				g.Theta = append(g.Theta, math.Float64bits(v))
			}
			for _, p := range res.Trace {
				g.TraceEvals = append(g.TraceEvals, p.Evaluations)
				g.TraceBest = append(g.TraceBest, math.Float64bits(p.Best))
			}
			out = append(out, g)
		}
	}
	return out
}

// TestGoldenParentBO compares every search bit for bit with what the
// golden commit produced.
func TestGoldenParentBO(t *testing.T) {
	got := goldenBORuns(t)
	if *updateGoldenBO {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBOPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenBOPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenBO
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
