package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"tolerance/internal/strategies"
)

// goldenCachePath holds, per suite, every cell's strategy fingerprint and
// training seed and the cache counters of a cold resolution, as written by
// commit 0a9cff2, the last commit whose cache keys and fingerprints were
// spelled with fmt and throwaway slices. Every later commit must reproduce
// them exactly: the fingerprints name the control problems the cache
// solves, and the seed decides every learned policy.
const goldenCachePath = "testdata/golden-cache-0a9cff2.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite "+goldenCachePath+" from this build (only ever run on the commit the file is named after)")

// goldenCacheSuite is one suite's record. Cells lists one line per cell
// for the built-in suites; the wide suite keeps only the digest of its
// lines (3 072 cells).
type goldenCacheSuite struct {
	Name   string
	Digest string
	Cells  []string `json:",omitempty"`
	// Cold counts a sequential resolution of every cell on a fresh cache;
	// Warm the same after a second pass over the cells.
	Cold, Warm CacheStats
}

// goldenWideSuite has the axes of the benchmark's wide suite (bench/
// inputs.go, full scale): 12 node models x 8 N1 x 8 Delta_R x the four
// built-in strategies.
func goldenWideSuite() Suite {
	return Suite{
		Name:         "bench-wide",
		Seed:         1,
		SeedsPerCell: 8,
		Steps:        40,
		FitSamples:   25000,
		AttackRates:  []float64{0.05, 0.08, 0.1, 0.15, 0.2, 0.3},
		CrashProfiles: []CrashProfile{
			{PC1: 1e-5, PC2: 1e-3},
			{PC1: 5e-3, PC2: 2e-2},
		},
		N1s:     []int{3, 4, 5, 6, 7, 8, 9, 10},
		DeltaRs: []int{5, 10, 15, 20, 25, 30, 40, 50},
		Policies: []PolicyKind{
			PolicyTolerance, PolicyNoRecovery, PolicyPeriodic, PolicyPeriodicAdaptive,
		},
	}
}

// goldenCacheLine spells one cell: its index and policy kind, the node
// model's fingerprint, the strategy fingerprint of the seed-less spec, the
// training seed PolicyFor derives from it and the strategy fingerprint the
// policy is memoized under.
func goldenCacheLine(t *testing.T, cell Cell, suite Suite) string {
	t.Helper()
	strat, ok := strategies.Lookup(string(cell.Policy))
	if !ok {
		t.Fatalf("cell %d: unknown policy %q", cell.Index, cell.Policy)
	}
	spec := cell.spec(suite)
	seedless := strat.Fingerprint(spec)
	spec.Seed = trainingSeed(suite.Seed, cell.Policy, seedless)
	return fmt.Sprintf("%d %s %s %s %d %s", cell.Index, cell.Policy,
		spec.Params.Digest(), seedless, spec.Seed, strat.Fingerprint(spec))
}

func goldenCacheRuns(t *testing.T) []goldenCacheSuite {
	t.Helper()
	var suites []Suite
	for _, name := range []string{"paper-grid", "table7", "learned-smoke", "scada-sweep"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		suites = append(suites, s)
	}
	suites = append(suites, goldenWideSuite())
	ctx := context.Background()
	var out []goldenCacheSuite
	for _, s := range suites {
		s = s.withDefaults()
		cells := s.Cells()
		g := goldenCacheSuite{Name: s.Name}
		h := sha256.New()
		for _, cell := range cells {
			line := goldenCacheLine(t, cell, s)
			fmt.Fprintln(h, line)
			if s.Name != "bench-wide" {
				g.Cells = append(g.Cells, line)
			}
		}
		g.Digest = hex.EncodeToString(h.Sum(nil))
		cache := NewStrategyCache()
		for pass := 0; pass < 2; pass++ {
			for _, cell := range cells {
				if _, err := cache.PolicyFor(ctx, cell, s); err != nil {
					t.Fatalf("%s cell %d: %v", s.Name, cell.Index, err)
				}
			}
			if pass == 0 {
				g.Cold = cache.Stats()
			}
		}
		g.Warm = cache.Stats()
		out = append(out, g)
	}
	return out
}

// TestGoldenParentCacheKeys holds every cell's fingerprints, training seed
// and the cold and warm cache counters to the file written by commit
// 0a9cff2.
func TestGoldenParentCacheKeys(t *testing.T) {
	got := goldenCacheRuns(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCachePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenCachePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCacheSuite
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d suites, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("suite %d is %q, golden has %q", i, g.Name, w.Name)
		}
		for j := range min(len(g.Cells), len(w.Cells)) {
			if g.Cells[j] != w.Cells[j] {
				t.Errorf("%s cell %d:\n got %s\nwant %s", w.Name, j, g.Cells[j], w.Cells[j])
			}
		}
		if len(g.Cells) != len(w.Cells) {
			t.Errorf("%s: %d cell lines, golden has %d", w.Name, len(g.Cells), len(w.Cells))
		}
		if g.Digest != w.Digest {
			t.Errorf("%s: cell digest %s, golden has %s", w.Name, g.Digest, w.Digest)
		}
		if g.Cold != w.Cold {
			t.Errorf("%s: cold stats %+v, golden has %+v", w.Name, g.Cold, w.Cold)
		}
		if g.Warm != w.Warm {
			t.Errorf("%s: warm stats %+v, golden has %+v", w.Name, g.Warm, w.Warm)
		}
	}
}
