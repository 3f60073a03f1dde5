package fleet

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tolerance/internal/baselines"
	"tolerance/internal/cmdp"
	"tolerance/internal/dist"
	"tolerance/internal/emulation"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/strategies"
	"tolerance/internal/telemetry"
)

// CacheStats counts solves (cache misses that ran a solver) and hits
// (requests served from a cached or in-flight computation). The counts are
// deterministic for a given workload: solves equals the number of distinct
// control problems, independent of worker count. A problem is distinct by
// its StrategyCache memo key: a recovery solve by (node model, DP config),
// a replication solve by the assembled LP, a q evaluation by (node model,
// recovery rule, Delta_R), a policy build by (kind, fingerprint). Which
// occupancy table the cache happens to retain never shows in the counts.
type CacheStats struct {
	// RecoverySolves counts distinct Problem 1 DP solves.
	RecoverySolves int64 `json:"recoverySolves"`
	// RecoveryHits counts recovery requests answered from cache.
	RecoveryHits int64 `json:"recoveryHits"`
	// ReplicationSolves counts distinct Problem 2 occupancy-measure LPs.
	ReplicationSolves int64 `json:"replicationSolves"`
	// ReplicationHits counts replication requests answered from cache.
	ReplicationHits int64 `json:"replicationHits"`
	// HealthyEvals counts distinct evaluations of q, the per-step node
	// survival probability behind Problem 2's transition model.
	HealthyEvals int64 `json:"healthyEvals"`
	// FitSolves counts distinct offline Ẑ fits (emulation.NewFitSet runs).
	FitSolves int64 `json:"fitSolves"`
	// FitHits counts fit requests answered from cache.
	FitHits int64 `json:"fitHits"`
	// PolicyBuilds counts distinct policy constructions through the
	// strategy registry (for learned strategies, training runs).
	PolicyBuilds int64 `json:"policyBuilds"`
	// PolicyHits counts policy requests answered from cache.
	PolicyHits int64 `json:"policyHits"`
}

// cacheEntry is a single-flight memoization slot: the first goroutine to
// claim the key computes, later ones wait on the sync.Once and share the
// result.
type cacheEntry[T any] struct {
	once sync.Once
	done atomic.Bool
	val  T
	err  error
}

func (e *cacheEntry[T]) compute(f func() (T, error)) (T, error) {
	e.once.Do(func() {
		e.val, e.err = f()
		e.done.Store(true)
	})
	return e.val, e.err
}

// memo is a single-flight memoization table: the first caller to claim a
// key computes its value, and every later caller shares the result. The
// zero value is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

// do returns the value memoized under key, running f at most once across
// concurrent callers. A caller that finds the key already claimed counts a
// hit in hits (nil: the memo is internal and counts none) and, if the value
// is still being computed, a single-flight wait. A computation that fails
// with a context cancellation or deadline is evicted, so a cancelled build
// cannot poison the cache for a later caller with a live context.
func (m *memo[K, V]) do(c *StrategyCache, key K, hits *atomic.Int64, f func() (V, error)) (V, error) {
	m.mu.Lock()
	entry, hit := m.m[key]
	if !hit {
		if m.m == nil {
			m.m = make(map[K]*cacheEntry[V])
		}
		entry = &cacheEntry[V]{}
		m.m[key] = entry
	}
	m.mu.Unlock()

	if hit && hits != nil {
		hits.Add(1)
		c.noteWait(!entry.done.Load())
	}
	v, err := entry.compute(f)
	if cancelled(err) {
		m.mu.Lock()
		if m.m[key] == entry {
			delete(m.m, key)
		}
		m.mu.Unlock()
	}
	return v, err
}

// cancelled reports whether err is a context cancellation or deadline: a
// computation that failed so is forgotten rather than cached.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// templateBlockCells is how many cells' scenario templates one block of a
// suite's template storage holds.
const templateBlockCells = 64

// suiteTemplates is one suite's scenario templates, a slot per cell in
// blocks of templateBlockCells allocated as cells in them are first
// requested: a worker that touches one lease's cells holds a block or two,
// not a table the size of the grid, and a cell costs no allocation of its
// own.
type suiteTemplates struct {
	mu     sync.Mutex
	blocks map[int]*[templateBlockCells]templateSlot
}

// slot returns cell's slot, allocating its block on first use.
func (t *suiteTemplates) slot(cell int) *templateSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.blocks[cell/templateBlockCells]
	if b == nil {
		if t.blocks == nil {
			t.blocks = make(map[int]*[templateBlockCells]templateSlot)
		}
		b = new([templateBlockCells]templateSlot)
		t.blocks[cell/templateBlockCells] = b
	}
	return &b[cell%templateBlockCells]
}

// templateSlot is a single-flight slot for one cell's scenario template:
// the first request resolves it holding mu, and a request that finds mu
// held waits for that resolution and shares it. A resolution that fails
// with a context cancellation is not kept, so a cancelled run cannot poison
// the slot for a later request with a live context.
type templateSlot struct {
	mu   sync.Mutex
	done atomic.Bool
	sc   emulation.Scenario
	err  error
}

// get returns the slot's template, resolving it with resolve at most once
// across concurrent callers. A caller that finds it resolved, or waits for
// another's resolution, counts a policy hit, and a wait counts a
// single-flight wait, as a memo hit does.
func (s *templateSlot) get(c *StrategyCache, resolve func() (emulation.Scenario, error)) (emulation.Scenario, error) {
	if !s.done.Load() {
		if !s.mu.TryLock() {
			c.noteWait(true)
			s.mu.Lock()
		}
		defer s.mu.Unlock()
		if !s.done.Load() {
			sc, err := resolve()
			if !cancelled(err) {
				s.sc, s.err = sc, err
				s.done.Store(true)
			}
			return sc, err
		}
	}
	c.policyHits.Add(1)
	return s.sc, s.err
}

// StrategyCache memoizes the control-problem solvers and the policies built
// on them. Every memo is keyed by a comparable struct over the node model's
// digest (nodemodel.Params.Digest) and the
// problem's other inputs: a Problem 1 solution by (model, normalized
// recovery.DPConfig), its ladder by (model, grid), q by (model, recovery
// rule fingerprint, Delta_R), a Problem 2 solution by those plus (smax, f,
// epsilon_A's bits), and the LP beneath it by cmdp.Model.Digest. Policies
// are keyed by (policy kind, strategy fingerprint) and fits by (catalog
// fingerprint, samples, fit seed); scenario templates live in per-suite
// storage by suite fingerprint and cell index. Beyond these the cache
// retains one closed-loop occupancy table: that of the node model whose q
// it evaluated last. It is safe for concurrent use; duplicate concurrent
// requests for one key run the solver once.
type StrategyCache struct {
	recovery    memo[recoveryKey, *recovery.DPSolution]
	ladders     memo[ladderKey, *recovery.Ladder]
	replication memo[replicationKey, *cmdp.Solution]
	healthy     memo[healthyKey, float64]
	lp          memo[dist.Digest, *cmdp.Solution]
	fits        memo[fitKey, *emulation.FitSet]
	policies    memo[policyKey, baselines.Policy]

	// templates holds each suite's scenario templates by suite
	// fingerprint.
	templatesMu sync.Mutex
	templates   map[string]*suiteTemplates

	// occ is the occupancy table of the node model whose q was evaluated
	// last. Cells expand with the node-model axes outermost (Suite.Cells),
	// so one model's q requests arrive together and share its table, while
	// the cache never holds more than one model's: the table is ~130 KB and
	// the memos outlive it.
	occMu sync.Mutex
	occ   struct {
		model dist.Digest
		table *recovery.OccupancyTable
	}

	recoverySolves    atomic.Int64
	recoveryHits      atomic.Int64
	replicationSolves atomic.Int64
	replicationHits   atomic.Int64
	healthyEvals      atomic.Int64
	fitSolves         atomic.Int64
	fitHits           atomic.Int64
	policyBuilds      atomic.Int64
	policyHits        atomic.Int64

	// tel is the attached telemetry bundle (nil until Instrument; read it
	// through telemetry). It is an atomic pointer so attaching never
	// contends with the lock-free hot paths, and a cache shared across runs
	// can be re-instrumented.
	tel atomic.Pointer[cacheTelemetry]
}

// cacheTelemetry holds the cache's registered telemetry handles.
// detachedTelemetry, all nil handles, is the bundle of a cache never
// instrumented.
type cacheTelemetry struct {
	// training is injected into Spec.Telemetry so learned-strategy builds
	// report optimizer/PPO progress.
	training *telemetry.Training
	// waits counts single-flight waits: requests that found another
	// goroutine's computation in flight and blocked for its result.
	waits *telemetry.Counter
	// fitNS, solveNS and buildNS time the offline Ẑ fits, the control-
	// problem solves (DP + LP) and the policy constructions (including
	// learned training runs).
	fitNS, solveNS, buildNS *telemetry.Histogram
}

var detachedTelemetry cacheTelemetry

// telemetry returns the attached handles, never nil.
func (c *StrategyCache) telemetry() *cacheTelemetry {
	if t := c.tel.Load(); t != nil {
		return t
	}
	return &detachedTelemetry
}

// Instrument attaches the cache to a collector: the existing hit/solve
// counters join snapshots as counter funcs (one source of truth — the
// counters are not double-tracked), and single-flight waits plus per-build
// solve/fit/train durations are recorded under cache.*. Telemetry is a pure
// observer: cache contents, keys and results are identical with or without
// it. Instrumenting an already instrumented cache rebinds it to the new
// collector; a nil collector detaches it.
func (c *StrategyCache) Instrument(col *telemetry.Collector) {
	col.CounterFunc("cache.recovery_solves", c.recoverySolves.Load)
	col.CounterFunc("cache.recovery_hits", c.recoveryHits.Load)
	col.CounterFunc("cache.replication_solves", c.replicationSolves.Load)
	col.CounterFunc("cache.replication_hits", c.replicationHits.Load)
	col.CounterFunc("cache.healthy_evals", c.healthyEvals.Load)
	col.CounterFunc("cache.fit_solves", c.fitSolves.Load)
	col.CounterFunc("cache.fit_hits", c.fitHits.Load)
	col.CounterFunc("cache.policy_builds", c.policyBuilds.Load)
	col.CounterFunc("cache.policy_hits", c.policyHits.Load)
	c.tel.Store(&cacheTelemetry{
		training: telemetry.NewTraining(col),
		waits:    col.Counter("cache.singleflight_waits"),
		fitNS:    col.Histogram("cache.fit_build_ns", telemetry.DurationBuckets()),
		solveNS:  col.Histogram("cache.solve_ns", telemetry.DurationBuckets()),
		buildNS:  col.Histogram("cache.policy_build_ns", telemetry.DurationBuckets()),
	})
}

// noteWait counts a single-flight wait when the entry a hit landed on is
// still being computed by another goroutine.
func (c *StrategyCache) noteWait(inFlight bool) {
	if inFlight {
		c.telemetry().waits.Inc(0)
	}
}

// StrategyCache implements the solver interface strategies build on.
var _ strategies.Solvers = (*StrategyCache)(nil)

// NewStrategyCache returns an empty cache.
func NewStrategyCache() *StrategyCache { return &StrategyCache{} }

// Stats snapshots the hit/solve counters.
func (c *StrategyCache) Stats() CacheStats {
	return CacheStats{
		RecoverySolves:    c.recoverySolves.Load(),
		RecoveryHits:      c.recoveryHits.Load(),
		ReplicationSolves: c.replicationSolves.Load(),
		ReplicationHits:   c.replicationHits.Load(),
		HealthyEvals:      c.healthyEvals.Load(),
		FitSolves:         c.fitSolves.Load(),
		FitHits:           c.fitHits.Load(),
		PolicyBuilds:      c.policyBuilds.Load(),
		PolicyHits:        c.policyHits.Load(),
	}
}

// Fits returns the offline-fitted observation models for the process
// catalog at (samples, fitSeed), fitting at most once per distinct key.
// The key includes the catalog's profile fingerprint, so a cache shared
// across suites never conflates fits of different observation models.
func (c *StrategyCache) Fits(samples int, fitSeed int64) (*emulation.FitSet, error) {
	fp, err := emulation.CatalogFingerprint()
	if err != nil {
		return nil, err
	}
	return c.fits.do(c, fitKey{fp, samples, fitSeed}, &c.fitHits, func() (*emulation.FitSet, error) {
		c.fitSolves.Add(1)
		start := time.Now()
		fs, err := emulation.NewFitSet(samples, fitSeed)
		c.telemetry().fitNS.Observe(0, int64(time.Since(start)))
		return fs, err
	})
}

// Recovery returns the Problem 1 DP solution for the model and config,
// solving at most once per distinct (params, config) pair. Finite-ΔR
// solutions are windows of one ladder per (params, grid), so a model's
// ΔRs share their induction stages: each stage runs once per cache.
func (c *StrategyCache) Recovery(p nodemodel.Params, cfg recovery.DPConfig) (*recovery.DPSolution, error) {
	n := cfg.Normalized()
	model := p.Digest()
	key := recoveryKey{model, n.DeltaR, n.GridSize, n.MaxValueIterations}
	return c.recovery.do(c, key, &c.recoveryHits, func() (*recovery.DPSolution, error) {
		c.recoverySolves.Add(1)
		start := time.Now()
		var sol *recovery.DPSolution
		var err error
		if n.DeltaR > 0 {
			sol, err = c.window(p, model, n)
		} else {
			sol, err = recovery.SolveDPWith(p, n, nil)
		}
		c.telemetry().solveNS.Observe(0, int64(time.Since(start)))
		return sol, err
	})
}

// window reads a finite-ΔR solution from the model's ladder, first
// extending the ladder on a pooled arena if it is not yet ΔR−1 deep.
func (c *StrategyCache) window(p nodemodel.Params, model dist.Digest, n recovery.DPConfig) (*recovery.DPSolution, error) {
	l, err := c.ladders.do(c, ladderKey{model, n.GridSize}, nil, func() (*recovery.Ladder, error) {
		return recovery.NewLadder(p, n.GridSize)
	})
	if err != nil {
		return nil, err
	}
	if l.Depth() < n.DeltaR-1 {
		l.Extend(n.DeltaR-1, nil)
	}
	return l.Window(n.DeltaR)
}

// ReplicationFor returns the Problem 2 solution for the node model under
// the given recovery decision rule (exact or learned thresholds, a PPO
// policy) and system shape. recFP canonicalizes the rule: the rule shapes
// q, so two callers with equal node params but different rules must not
// share a slot. The healthy-node probability q is computed
// once per (params, strategy, deltaR) — system shapes that share a node
// model share it — and the occupancy-measure LP is further deduplicated
// across input keys by the assembled model's digest.
func (c *StrategyCache) ReplicationFor(p nodemodel.Params, rec recovery.Strategy, recFP string, smax, f int, epsilonA float64, deltaR int) (*cmdp.Solution, error) {
	hk := healthyKey{p.Digest(), recFP, deltaR}
	key := replicationKey{hk, smax, f, math.Float64bits(epsilonA)}
	return c.replication.do(c, key, &c.replicationHits, func() (*cmdp.Solution, error) {
		q, err := c.healthyProb(p, rec, hk)
		if err != nil {
			return nil, err
		}
		model, err := cmdp.NewBinomialModel(smax, f, epsilonA, q, 0)
		if err != nil {
			return nil, err
		}
		return c.solveLP(model)
	})
}

// healthyProb memoizes cmdp.HealthyProb by (params, strategy, deltaR).
func (c *StrategyCache) healthyProb(p nodemodel.Params, rec recovery.Strategy, key healthyKey) (float64, error) {
	return c.healthy.do(c, key, nil, func() (float64, error) {
		c.healthyEvals.Add(1)
		table, err := c.occupancyTable(p, key.model)
		if err != nil {
			return 0, err
		}
		return cmdp.HealthyProb(table, rec, key.deltaR)
	})
}

// occupancyTable returns the closed-loop table of node model p (digest
// model), building it unless it is the one the cache retains, which it
// then replaces. Building under the lock lets the workers that resolve one
// model's cells together wait for one build instead of each making their
// own.
func (c *StrategyCache) occupancyTable(p nodemodel.Params, model dist.Digest) (*recovery.OccupancyTable, error) {
	c.occMu.Lock()
	defer c.occMu.Unlock()
	if c.occ.table != nil && c.occ.model == model {
		return c.occ.table, nil
	}
	table, err := recovery.NewOccupancyTable(p)
	if err != nil {
		return nil, err
	}
	c.occ.model, c.occ.table = model, table
	return table, nil
}

// solveLP memoizes cmdp.Solve by the model fingerprint.
func (c *StrategyCache) solveLP(model *cmdp.Model) (*cmdp.Solution, error) {
	// The counter increments inside the once-guarded closure: exactly one
	// caller's closure runs, so the count is one per distinct LP no matter
	// which goroutine wins the race into compute.
	return c.lp.do(c, model.Digest(), nil, func() (*cmdp.Solution, error) {
		c.replicationSolves.Add(1)
		start := time.Now()
		sol, err := cmdp.Solve(model)
		c.telemetry().solveNS.Observe(0, int64(time.Since(start)))
		return sol, err
	})
}

// PolicyFor resolves the cell's policy kind through the strategy registry
// and memoizes the built policy by its construction fingerprint, so a grid
// cell's policy — including an expensive learned-strategy training run — is
// built exactly once per cache no matter how many scenarios share it. ctx
// cancels in-flight construction.
func (c *StrategyCache) PolicyFor(ctx context.Context, cell Cell, suite Suite) (baselines.Policy, error) {
	strat, ok := strategies.Lookup(string(cell.Policy))
	if !ok {
		return nil, errUnknownPolicy(cell.Policy)
	}
	spec := cell.spec(suite)
	fp := strat.Fingerprint(spec)
	spec.Seed = trainingSeed(suite.Seed, cell.Policy, fp)
	if sr, ok := strat.(strategies.SeedReader); !ok || sr.ReadsSeed() {
		fp = strat.Fingerprint(spec)
	}
	key := policyKey{cell.Policy, fp}
	return c.policies.do(c, key, &c.policyHits, func() (baselines.Policy, error) {
		c.policyBuilds.Add(1)
		t := c.telemetry()
		// Learned strategies report optimizer/PPO progress through the
		// injected training sink. The sink is excluded from fingerprints
		// (like Workers) and observes training strictly from outside the
		// rng path, so the built policy is identical with or without it.
		spec.Telemetry = t.training
		start := time.Now()
		pol, err := strat.Policy(ctx, spec, c)
		t.buildNS.Observe(0, int64(time.Since(start)))
		return pol, err
	})
}

// scenarioFor resolves the cell's policy and assembles the scenario
// template every seed of the cell copies (Seed, FitSeed and Fits are set
// per scenario by the engine). The template is kept in the suite's
// template storage by (suite fingerprint, cell index), so the steady-state
// fleet hot path — a cell whose policy was already built by an earlier run
// of the same suite — skips the canonical construction-fingerprint
// computation and its allocations entirely; the first resolution per cell
// still routes through PolicyFor, which deduplicates the actual build
// (including learned training) across suites by construction fingerprint.
func (c *StrategyCache) scenarioFor(ctx context.Context, suiteFP string, cell *Cell, suite Suite) (emulation.Scenario, error) {
	c.templatesMu.Lock()
	t := c.templates[suiteFP]
	if t == nil {
		if c.templates == nil {
			c.templates = make(map[string]*suiteTemplates)
		}
		t = &suiteTemplates{}
		c.templates[suiteFP] = t
	}
	c.templatesMu.Unlock()
	return t.slot(cell.Index).get(c, func() (emulation.Scenario, error) {
		policy, err := c.PolicyFor(ctx, *cell, suite)
		if err != nil {
			return emulation.Scenario{}, err
		}
		s := suite.withDefaults()
		return cell.scenario(policy, 0, s.Steps, s.FitSamples), nil
	})
}

// The memo keys. model is the node model's digest (nodemodel.Params.Digest).
type (
	// recoveryKey names a Problem 1 solution: the model and the normalized
	// DPConfig.
	recoveryKey struct {
		model                         dist.Digest
		deltaR, grid, valueIterations int
	}
	// ladderKey names a model's finite-Delta_R ladder on one grid.
	ladderKey struct {
		model dist.Digest
		grid  int
	}
	// healthyKey names q: the model under a recovery rule (its
	// fingerprint) and a BTR bound.
	healthyKey struct {
		model  dist.Digest
		rec    string
		deltaR int
	}
	// replicationKey names a Problem 2 solution: q's key and the system
	// shape, epsilon_A by its bits.
	replicationKey struct {
		healthyKey
		smax, f  int
		epsilonA uint64
	}
	// fitKey names an offline fit: the catalog fingerprint, M and the fit
	// seed.
	fitKey struct {
		catalog string
		samples int
		fitSeed int64
	}
	// policyKey names a built policy: its kind and construction
	// fingerprint.
	policyKey struct {
		kind PolicyKind
		fp   string
	}
)

// trainingSeed derives the rng seed a cell's policy trains with from the
// suite seed, the policy kind and the seed-less construction fingerprint —
// never from the scenario index or scheduling — so a learned policy is
// identical across worker counts, shards and resumes, while distinct suites
// (or seeds) train distinct policies. It is the FNV-1a hash of
// "train|<suite seed>|<kind>|<fingerprint>", read as an int64.
func trainingSeed(suiteSeed int64, kind PolicyKind, fp string) int64 {
	var buf [192]byte
	key := strconv.AppendInt(append(buf[:0], "train|"...), suiteSeed, 10)
	key = append(append(append(append(key, '|'), kind...), '|'), fp...)
	return int64(dist.NewDigest().Bytes(key))
}
