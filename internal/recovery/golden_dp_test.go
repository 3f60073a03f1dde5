package recovery_test

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
	"sync"
	"testing"

	"tolerance"
	"tolerance/internal/recovery"
)

// goldenDPPath holds exact-DP Solve outputs written by commit b2e7beb, the
// last commit whose Bellman sweeps evaluated the expectation at every grid
// belief. Every later commit must reproduce them bit for bit: the DP's
// thresholds and average costs are a byte contract.
const goldenDPPath = "testdata/golden-dp-b2e7beb.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite "+goldenDPPath+" from this build (only ever run on the commit the file is named after)")

// goldenDPModel is one node model's entry: a sha256 over every float bit
// of Solve's answer for each golden DeltaR, and the error text of each
// DeltaR whose solve fails.
type goldenDPModel struct {
	Name   string
	Digest string
	Errors map[string]string `json:",omitempty"`
	// skipped marks a model this run did not solve (raceSlow).
	skipped bool
}

var (
	goldenPAs     = []float64{0.001, 0.02, 0.1, 0.3, 1}
	goldenEtas    = []float64{1, 2, 6, 20}
	goldenPUs     = []float64{0, 0.02, 0.3}
	goldenDeltaRs = []int{1, 2, 3, 5, 8, 15, 25, 40, 70, 120, tolerance.InfiniteDeltaR}
)

// raceSlow reports the models whose stationary solves run thousands of
// value-iteration sweeps per probe — pA 0.001, and pA 1 at eta 1, 14 of
// the 60 — which take most of the test's time, and nearly two minutes of
// it under the race detector. A race build checks the other 46.
func raceSlow(m tolerance.NodeModel) bool {
	return m.PA == 0.001 || (m.PA == 1 && m.Eta == 1)
}

// goldenDPName names a model's entry.
func goldenDPName(m tolerance.NodeModel) string {
	return fmt.Sprintf("pA=%v/eta=%v/pU=%v", m.PA, m.Eta, m.PU)
}

// goldenDPRun solves one model at every golden DeltaR through the public
// Solve facade (method dp) and digests the answers in DeltaR order.
func goldenDPRun(m tolerance.NodeModel) goldenDPModel {
	out := goldenDPModel{Name: goldenDPName(m)}
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, dr := range goldenDeltaRs {
		word(uint64(int64(dr)))
		sol, err := tolerance.Solve(context.Background(), tolerance.RecoveryProblem{Model: m, DeltaR: dr})
		if err != nil {
			if out.Errors == nil {
				out.Errors = map[string]string{}
			}
			out.Errors[fmt.Sprint(dr)] = err.Error()
			word(math.MaxUint64)
			continue
		}
		r := sol.Recovery
		word(math.Float64bits(r.ExpectedCost))
		word(uint64(len(r.Thresholds)))
		for _, th := range r.Thresholds {
			word(math.Float64bits(th))
		}
	}
	out.Digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// goldenDPRuns solves every golden model (pA x eta x pU, the Table 8 crash
// probabilities) but those skip reports, two models at a time.
func goldenDPRuns(skip func(tolerance.NodeModel) bool) []goldenDPModel {
	var models []tolerance.NodeModel
	for _, pa := range goldenPAs {
		for _, eta := range goldenEtas {
			for _, pu := range goldenPUs {
				m := tolerance.DefaultNodeModel()
				m.PA, m.Eta, m.PU = pa, eta, pu
				models = append(models, m)
			}
		}
	}
	out := make([]goldenDPModel, len(models))
	next := make(chan int)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if skip(models[i]) {
					out[i] = goldenDPModel{Name: goldenDPName(models[i]), skipped: true}
					continue
				}
				out[i] = goldenDPRun(models[i])
			}
		}()
	}
	for i := range models {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// TestGoldenParentDP compares every exact-DP output, and every stationary
// failure's error text, with what the golden commit produced.
func TestGoldenParentDP(t *testing.T) {
	skip := func(tolerance.NodeModel) bool { return false }
	if recovery.RaceEnabled && !*updateGolden {
		skip = raceSlow
	}
	got := goldenDPRuns(skip)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDPPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenDPPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenDPModel
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
		if g.skipped {
			continue
		}
		if g.Digest != w.Digest {
			t.Errorf("%s: solutions differ from the golden commit's", g.Name)
		}
		if len(g.Errors) != len(w.Errors) {
			t.Errorf("%s: errors %v, golden %v", g.Name, g.Errors, w.Errors)
			continue
		}
		for dr, msg := range w.Errors {
			if g.Errors[dr] != msg {
				t.Errorf("%s: deltaR %s: error %q, golden %q", g.Name, dr, g.Errors[dr], msg)
			}
		}
	}
}
