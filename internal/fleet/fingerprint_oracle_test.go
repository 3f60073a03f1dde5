package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tolerance/internal/cmdp"
	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/strategies"
)

// The fingerprint and seed-key spellings that preceded dist.Digest, kept
// as the oracles of the allocation-free ones: a slice of every value
// (Categorical.Probs copies included), hash/fnv behind its interface, and
// fmt for the hex digest, the strategy fingerprints and the seed key.

func oracleFingerprint(values ...float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func oracleParamsFingerprint(p nodemodel.Params) string {
	values := []float64{p.PA, p.PC1, p.PC2, p.PU, p.Eta}
	for _, z := range []*dist.Categorical{p.ZHealthy, p.ZCompromised} {
		if z == nil {
			values = append(values, math.NaN())
			continue
		}
		values = append(values, float64(z.Len()))
		values = append(values, z.Probs()...)
	}
	return oracleFingerprint(values...)
}

func oracleThresholdFingerprint(s *recovery.ThresholdStrategy) string {
	return oracleFingerprint(append([]float64{float64(s.DeltaR)}, s.Thresholds...)...)
}

func oracleModelFingerprint(m *cmdp.Model) string {
	values := []float64{float64(m.SMax), float64(m.F), m.EpsilonA}
	for _, action := range m.FS {
		for _, row := range action {
			values = append(values, row...)
		}
	}
	return oracleFingerprint(values...)
}

// oracleStrategyFingerprint is every built-in Strategy.Fingerprint as
// spelled with fmt.Sprintf, the learned kinds' defaults applied.
func oracleStrategyFingerprint(t *testing.T, kind string, spec strategies.Spec) string {
	t.Helper()
	pfp := oracleParamsFingerprint(spec.Params)
	orDefault := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	horizon := orDefault(spec.Horizon, strategies.DefaultHorizon)
	switch {
	case kind == "TOLERANCE":
		return fmt.Sprintf("%s|dr=%d|smax=%d|f=%d|eps=%x",
			pfp, spec.DeltaR, spec.SMax, spec.F, spec.EpsilonA)
	case kind == "NO-RECOVERY", kind == "PERIODIC":
		return "static"
	case kind == "PERIODIC-ADAPTIVE":
		return fmt.Sprintf("n1=%d", spec.N1)
	case kind == "learned:ppo":
		return fmt.Sprintf("%s|dr=%d|smax=%d|f=%d|eps=%x|it=%d|h=%d|seed=%d",
			pfp, spec.DeltaR, spec.SMax, spec.F, spec.EpsilonA,
			orDefault(spec.Iterations, strategies.DefaultIterations), horizon, spec.Seed)
	case strings.HasPrefix(kind, "learned:"):
		return fmt.Sprintf("%s|dr=%d|smax=%d|f=%d|eps=%x|b=%d|m=%d|h=%d|seed=%d",
			pfp, spec.DeltaR, spec.SMax, spec.F, spec.EpsilonA,
			orDefault(spec.Budget, strategies.DefaultBudget),
			orDefault(spec.Episodes, strategies.DefaultEpisodes), horizon, spec.Seed)
	}
	t.Fatalf("no oracle for strategy %q", kind)
	return ""
}

// oracleTrainingSeed is PolicyFor's seed before trainingSeed: FNV-1a of the
// key fmt spelled.
func oracleTrainingSeed(suiteSeed int64, kind PolicyKind, fp string) int64 {
	h := fnv.New64a()
	h.Write([]byte(fmt.Sprintf("train|%d|%s|%s", suiteSeed, kind, fp)))
	return int64(h.Sum64())
}

// fingerprintCase is one draw of every fingerprint input.
type fingerprintCase struct {
	values     []float64
	params     nodemodel.Params
	thresholds *recovery.ThresholdStrategy
	model      *cmdp.Model
	spec       strategies.Spec
	suiteSeed  int64
}

// checkFingerprints holds every fingerprint of c, every built-in
// strategy's and the training seed of each to their oracles.
func checkFingerprints(t *testing.T, c fingerprintCase) {
	t.Helper()
	if got, want := dist.Fingerprint(c.values...), oracleFingerprint(c.values...); got != want {
		t.Fatalf("dist.Fingerprint(%v) = %s, oracle %s", c.values, got, want)
	}
	if got, want := c.params.Digest().String(), oracleParamsFingerprint(c.params); got != want {
		t.Fatalf("Params.Digest(%+v) = %s, oracle %s", c.params, got, want)
	}
	if got, want := c.thresholds.Fingerprint(), oracleThresholdFingerprint(c.thresholds); got != want {
		t.Fatalf("ThresholdStrategy.Fingerprint(%+v) = %s, oracle %s", c.thresholds, got, want)
	}
	if got, want := c.model.Digest().String(), oracleModelFingerprint(c.model); got != want {
		t.Fatalf("Model.Digest(%+v) = %s, oracle %s", c.model, got, want)
	}
	for _, name := range strategies.Names() {
		strat, _ := strategies.Lookup(name)
		got, want := strat.Fingerprint(c.spec), oracleStrategyFingerprint(t, name, c.spec)
		if got != want {
			t.Fatalf("%s.Fingerprint = %q, oracle %q (spec %+v)", name, got, want, c.spec)
		}
		kind := PolicyKind(name)
		if got, want := trainingSeed(c.suiteSeed, kind, got), oracleTrainingSeed(c.suiteSeed, kind, want); got != want {
			t.Fatalf("%s: training seed %d, oracle %d", name, got, want)
		}
	}
}

// specialFloats are the values a bitwise fingerprint must keep apart or
// spell exactly.
var specialFloats = []float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, math.MaxFloat64, 0.9, 1e-5, -0.25,
	math.Float64frombits(0x7ff8000000000002), // a NaN with another payload
}

// randomFloat draws a special value one time in three, otherwise a
// uniform, a scaled or a raw-bits float.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0, 1:
		return specialFloats[rng.Intn(len(specialFloats))]
	case 2:
		return rng.Float64()
	case 3:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	case 4:
		return math.Float64frombits(rng.Uint64())
	}
	return float64(rng.Intn(100))
}

func randomFloats(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = randomFloat(rng)
	}
	return vs
}

// randomInt draws a small count, a negative one or an extreme.
func randomInt(rng *rand.Rand) int {
	switch rng.Intn(5) {
	case 0:
		return -rng.Intn(100)
	case 1:
		return []int{math.MaxInt, math.MinInt, math.MaxInt32}[rng.Intn(3)]
	}
	return rng.Intn(200)
}

// randomCategorical is nil one time in four, otherwise a random pmf of
// support 1..40.
func randomCategorical(rng *rand.Rand) *dist.Categorical {
	if rng.Intn(4) == 0 {
		return nil
	}
	w := make([]float64, 1+rng.Intn(40))
	sum := 0.0
	for i := range w {
		w[i] = rng.ExpFloat64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return dist.MustCategorical(w)
}

func randomFingerprintCase(rng *rand.Rand) fingerprintCase {
	p := nodemodel.Params{
		PA: randomFloat(rng), PC1: randomFloat(rng), PC2: randomFloat(rng),
		PU: randomFloat(rng), Eta: randomFloat(rng),
		ZHealthy: randomCategorical(rng), ZCompromised: randomCategorical(rng),
	}
	smax := rng.Intn(6)
	fs := make([][][]float64, rng.Intn(3))
	for a := range fs {
		fs[a] = make([][]float64, smax+1)
		for s := range fs[a] {
			fs[a][s] = randomFloats(rng, smax+1)
		}
	}
	return fingerprintCase{
		values:     randomFloats(rng, rng.Intn(12)),
		params:     p,
		thresholds: &recovery.ThresholdStrategy{Thresholds: randomFloats(rng, rng.Intn(30)), DeltaR: randomInt(rng)},
		model:      &cmdp.Model{SMax: smax, F: randomInt(rng), EpsilonA: randomFloat(rng), FS: fs},
		spec: strategies.Spec{
			Params: p, N1: randomInt(rng), SMax: randomInt(rng), F: randomInt(rng), K: randomInt(rng),
			DeltaR: randomInt(rng), EpsilonA: randomFloat(rng), Seed: int64(rng.Uint64()),
			Budget: randomInt(rng), Episodes: randomInt(rng), Horizon: randomInt(rng),
			Iterations: randomInt(rng), Workers: randomInt(rng),
		},
		suiteSeed: int64(rng.Uint64()),
	}
}

// TestFingerprintOracle holds every fingerprint the strategy cache keys on
// — dist.Fingerprint, Params, threshold strategies, cmdp.Model, every
// built-in Strategy.Fingerprint — and the training seed to the fmt and
// Probs() spellings they replaced, on random inputs rich in NaN, ±0 and
// ±Inf, and on the Table 8 model.
func TestFingerprintOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	n := 3000
	if testing.Short() {
		n = 300
	}
	table8 := randomFingerprintCase(rng)
	table8.params = nodemodel.DefaultParams()
	table8.spec.Params = table8.params
	checkFingerprints(t, table8)
	for range n {
		checkFingerprints(t, randomFingerprintCase(rng))
	}
}

// FuzzFingerprintOracle is TestFingerprintOracle on fuzzed inputs: the
// scalars directly, thresholds and values from raw float64 bits, and the
// observation pmfs from byte weights (none when every weight is zero).
func FuzzFingerprintOracle(f *testing.F) {
	f.Add(0.1, 1e-5, 1e-3, 0.02, 2.0, 0.9, 15, 13, 1, 3, 0, int64(7), int64(1),
		[]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0.0, math.NaN(), -1, 0, -5, math.MaxInt, -3,
		int64(math.MinInt64), int64(-1), []byte{}, []byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, pa, pc1, pc2, pu, eta, eps float64, deltaR, smax, fTol, n1, budget int,
		seed, suiteSeed int64, zh, zc, raw []byte) {
		floats := make([]float64, len(raw)/8)
		for i := range floats {
			floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		p := nodemodel.Params{PA: pa, PC1: pc1, PC2: pc2, PU: pu, Eta: eta,
			ZHealthy: byteCategorical(zh), ZCompromised: byteCategorical(zc)}
		dim := min(max(smax, 0), 4)
		fs := [][][]float64{make([][]float64, dim+1)}
		for s := range fs[0] {
			fs[0][s] = floats
		}
		checkFingerprints(t, fingerprintCase{
			values:     floats,
			params:     p,
			thresholds: &recovery.ThresholdStrategy{Thresholds: floats, DeltaR: deltaR},
			model:      &cmdp.Model{SMax: smax, F: fTol, EpsilonA: eps, FS: fs},
			spec: strategies.Spec{Params: p, N1: n1, SMax: smax, F: fTol, DeltaR: deltaR,
				EpsilonA: eps, Seed: seed, Budget: budget, Episodes: -budget, Horizon: n1, Iterations: budget},
			suiteSeed: suiteSeed,
		})
	})
}

// byteCategorical normalizes byte weights into a pmf, or returns nil when
// they sum to zero.
func byteCategorical(w []byte) *dist.Categorical {
	sum := 0.0
	for _, b := range w {
		sum += float64(b)
	}
	if sum == 0 {
		return nil
	}
	probs := make([]float64, len(w))
	for i, b := range w {
		probs[i] = float64(b) / sum
	}
	c, err := dist.NewCategorical(probs)
	if err != nil {
		return nil
	}
	return c
}
