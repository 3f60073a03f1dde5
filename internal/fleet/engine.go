package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tolerance/internal/chaos"
	"tolerance/internal/dist"
	"tolerance/internal/emulation"
	"tolerance/internal/telemetry"
)

// Config tunes one fleet execution.
type Config struct {
	// Workers bounds the worker pool. Zero (or negative) defaults to
	// GOMAXPROCS; an explicit value is never capped or clamped, so runs may
	// pin a single worker or oversubscribe a host regardless of its core
	// count. Output is byte-identical for every value.
	Workers int
	// Cache supplies a shared strategy cache; nil creates a fresh one.
	// Sharing a cache across suite runs with overlapping grids avoids
	// re-solving common control problems and re-fitting observation
	// models.
	Cache *StrategyCache
	// Progress, when set, is called after every folded scenario with the
	// number folded so far and the number scheduled (from the aggregator
	// goroutine).
	Progress func(done, total int)
	// Shard restricts the run to a deterministic slice of the scenario
	// index set (the zero value runs everything). Per-index seeding makes
	// a sharded run execute exactly the scenarios — with exactly the rng
	// streams — that a whole run would.
	Shard Shard
	// Completed holds records of scenarios already finished by an earlier
	// (killed) run of the same suite and shard, by scenario index. They
	// are folded from the stored metrics instead of re-executed, so a
	// resumed run completes with byte-identical output.
	Completed *RecordTable
	// OnRecord, when set, receives every freshly executed scenario in
	// fold (index) order — the checkpoint write hook. An error aborts the
	// run.
	OnRecord func(RunRecord) error
	// Telemetry, when set, receives the run's live metrics (fleet.* —
	// scenario starts/folds, batch claims, duration and step histograms,
	// worker busy time — plus the fleet.fit/fleet.run phase timings).
	// Telemetry is recorded strictly outside the rng and fold paths and is
	// allocation-free in steady state, so the Result — and the per-scenario
	// zero-allocation property — is byte-identical with or without it. To
	// include the strategy-cache statistics in the same snapshot, also call
	// Cache.Instrument with this collector.
	Telemetry *telemetry.Collector
	// Chaos, when set, is the armed fault-injection plan threaded to
	// non-emulation backends (the cluster backend wraps its replica links
	// with it). The in-process emulation path never touches the network or
	// disk, so the plan cannot perturb it — records stay a pure function of
	// (suite, index) and the byte-stability contract holds under chaos by
	// construction. nil disables injection.
	Chaos *chaos.Plan
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Cache == nil {
		c.Cache = NewStrategyCache()
	}
	return c
}

// CellResult is one grid cell's streamed aggregate over its seeds.
type CellResult struct {
	Cell Cell `json:"cell"`
	// Runs is the number of scenario runs folded into the aggregate.
	Runs int64 `json:"runs"`
	// Aggregate holds the Welford summaries: T(A), T(A,quorum), T(R),
	// F(R), average nodes and average eq. (5) cost, each with a 95% CI.
	Aggregate emulation.Aggregate `json:"aggregate"`
}

// Result is a fleet execution report. It contains only deterministic
// quantities: running the same suite with any worker count — or as shards
// merged with MergeRecords — produces a byte-identical serialization.
// (Strategy-cache statistics are deliberately not part of it; they depend
// on how the run was partitioned. Read them from Config.Cache.)
type Result struct {
	Suite     string       `json:"suite"`
	Seed      int64        `json:"seed"`
	Scenarios int          `json:"scenarios"`
	Cells     []CellResult `json:"cells"`
}

// scenarioSeed derives a scenario's rng seed from the suite seed and the
// scenario index with the shared SplitMix64 finalizer, so neighbouring
// indices get decorrelated streams and results never depend on worker
// scheduling.
func scenarioSeed(suiteSeed int64, index int) int64 {
	return int64(dist.SplitMix64(uint64(suiteSeed)*dist.GoldenGamma + uint64(index) + 1))
}

// outcome is one executed (or replayed) scenario's result. Records travel
// by value inside the execution's batch buffers, so the steady-state path
// moves no per-scenario allocation across the worker/aggregator boundary.
type outcome struct {
	rec   RunRecord // rec.Index is the global scenario index — the seed and record identity
	fresh bool
	err   error
}

// batchResult carries the outcomes of one contiguous slice of scheduled
// positions, [start, start+len(outs)). An execution allocates a fixed set
// of them up front; workers take one per batch, the aggregator returns it
// after folding.
type batchResult struct {
	start int
	outs  []outcome // a prefix of arr
	arr   [foldSpan]outcome
}

// batchesPerWorker bounds how far the workers may run ahead of the fold:
// an execution has batchesPerWorker·Workers batch buffers (fewer when it
// has fewer batches), and a batch is claimed only with a free one in hand.
const batchesPerWorker = 8

// cellState lazily resolves one grid cell's scenario template, at most once
// per run; sync.Once keeps the resolved path allocation-free.
type cellState struct {
	once sync.Once
	sc   emulation.Scenario
	err  error
}

// Run expands the suite and executes every scheduled scenario — the whole
// grid, or the Config.Shard slice of it — on a bounded worker pool.
// Scenarios already present in Config.Completed fold from their stored
// metrics instead of re-running. The aggregator folds outcomes in strict
// schedule order over fixed foldSpan-wide spans — the fold tree is a pure
// function of the schedule, so the aggregates are bit-identical for any
// worker count; with the strategy cache each distinct control problem is
// solved exactly once.
func Run(ctx context.Context, suite Suite, cfg Config) (*Result, error) {
	suite = suite.withDefaults()
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Shard.Validate(); err != nil {
		return nil, err
	}
	gridTotal := suite.NumScenarios()
	if gridTotal == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSuite)
	}
	sched := cfg.Shard.Indices(gridTotal)
	if len(sched) == 0 {
		return nil, fmt.Errorf("%w: shard %s selects no scenarios of %d",
			ErrBadSuite, cfg.Shard, gridTotal)
	}
	for rec := range cfg.Completed.records() {
		if err := checkCompleted(rec.Index, rec, gridTotal, suite.SeedsPerCell, cfg.Shard); err != nil {
			return nil, err
		}
	}
	p := newPlan(suite)
	cfg = cfg.withDefaults()
	cfg.Telemetry.Gauge(MetricScenariosTotal).Set(float64(len(sched)))
	cfg.Telemetry.Gauge(MetricWorkers).Set(float64(cfg.Workers))
	// A run whose scheduled work is entirely replayed from records never
	// fits at all.
	if cfg.Completed.Len() < len(sched) {
		if err := p.fit(cfg); err != nil {
			return nil, err
		}
	}
	f := newFold(p.suite, p.cells, len(sched), cfg.OnRecord, cfg.Progress, cfg.Telemetry)
	endRun := cfg.Telemetry.Phase("fleet.run")
	err := p.execute(ctx, sched, cfg, f.add)
	endRun()
	if err != nil {
		return nil, err
	}
	return f.result(), nil
}

// plan is what an execution derives from the suite alone: the defaulted
// suite, its cell expansion, its fingerprint (the strategy cache's
// template key) and its offline fit. Run builds one per call; a worker
// session builds one after the handshake has verified the fingerprint and
// executes every lease against it, so a lease costs its own scenarios and
// not the grid's, and the session fits once.
type plan struct {
	suite Suite
	cells []Cell
	fp    string
	fits  *emulation.FitSet // nil until fit
}

func newPlan(suite Suite) *plan {
	suite = suite.withDefaults()
	return &plan{suite: suite, cells: suite.Cells(), fp: suite.Fingerprint()}
}

// fit resolves the suite-wide offline fit, once per plan, under the
// fleet.fit phase: every scenario shares one fit seed derived from the
// master seed, so the Ẑ estimation happens once per suite (the paper's
// offline training phase). cfg must carry its defaults.
func (p *plan) fit(cfg Config) error {
	if p.fits != nil {
		return nil
	}
	defer cfg.Telemetry.Phase("fleet.fit")()
	var err error
	p.fits, err = cfg.Cache.Fits(p.suite.FitSamples, emulation.FitStreamSeed(p.suite.Seed))
	return err
}

// execute runs the scheduled scenario indices — ascending, in range, and a
// superset of cfg.Completed's keys — on the plan's fit (p.fit must have
// run unless every index is completed) and hands every outcome to emit in
// schedule order; fresh reports that it was executed rather than taken from
// cfg.Completed. Run derives the schedule from its shard and emits into its
// fold; a worker passes a validated lease range and emits into the Records
// frame it ships. Per-index seeding makes the records identical to the ones
// a whole run produces, whichever schedule executes them. An emit error
// aborts the execution and is returned.
func (p *plan) execute(ctx context.Context, sched []int, cfg Config, emit func(rec *RunRecord, fresh bool) error) error {
	cfg = cfg.withDefaults()
	suite, cells := p.suite, p.cells
	total := len(sched)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tm := newFleetMetrics(cfg.Telemetry)
	fitSeed, fits := emulation.FitStreamSeed(suite.Seed), p.fits

	// Per-run cell execution state: each scheduled cell resolves its policy
	// and scenario template at most once per run (replayed cells not at
	// all), with an allocation-free fast path after the first resolution.
	// The slice spans only the cells the schedule touches — a lease's one or
	// two, not the grid's thousands.
	firstCell := sched[0] / suite.SeedsPerCell
	states := make([]cellState, sched[total-1]/suite.SeedsPerCell-firstCell+1)

	// Workers claim index-contiguous batches of scheduled positions through
	// one atomic counter — one channel round-trip per batch instead of two
	// per scenario — and execute them on a worker-resident emulation runner
	// whose node pool, rng streams and scratch survive from scenario to
	// scenario. Outcome buffers are allocated once per execution and cycle
	// between the workers and the aggregator, so the per-scenario path
	// allocates nothing and an execution allocates the same number of times
	// however its workers are scheduled.
	numBatches := (total + foldSpan - 1) / foldSpan
	bufs := make([]batchResult, min(numBatches, batchesPerWorker*cfg.Workers))
	free := make(chan *batchResult, len(bufs))
	for i := range bufs {
		bufs[i].outs = bufs[i].arr[:0]
		free <- &bufs[i]
	}

	outcomes := make(chan *batchResult, cfg.Workers)
	var nextBatch atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			runner := emulation.NewRunner()
			// The hook is a closure allocation a nil handle cannot skip.
			if cfg.Telemetry != nil {
				runner.OnRun(func(steps int) { tm.steps.Observe(wid, int64(steps)) })
			}
			for ctx.Err() == nil {
				// Every claimed batch not yet folded holds a buffer, so the
				// batch the fold waits for is always in some worker's hands
				// and waiting here for a free buffer cannot deadlock.
				var br *batchResult
				select {
				case br = <-free:
				case <-ctx.Done():
					return
				}
				bi := int(nextBatch.Add(1)) - 1
				if bi >= numBatches {
					free <- br // for the next worker to find the batches gone
					return
				}
				tm.batches.Inc(wid)
				start := bi * foldSpan
				end := min(start+foldSpan, total)
				br.start = start
				br.outs = br.outs[:0]
				failed := false
				for pos := start; pos < end && !failed; pos++ {
					if ctx.Err() != nil {
						break // cancelled mid-batch: deliver the executed prefix
					}
					idx := sched[pos]
					cell := &cells[idx/suite.SeedsPerCell]
					oc := outcome{rec: RunRecord{Index: idx, Cell: cell.Index}, fresh: true}
					if rec, ok := cfg.Completed.get(idx); ok {
						oc.rec.Metrics, oc.fresh = rec.Metrics, false
					} else {
						st := &states[cell.Index-firstCell]
						st.once.Do(func() { st.sc, st.err = cfg.Cache.scenarioFor(ctx, p.fp, cell, suite) })
						if st.err != nil {
							oc.err = st.err
						} else {
							sc := st.sc
							sc.Seed = scenarioSeed(suite.Seed, idx)
							sc.FitSeed = fitSeed
							sc.Fits = fits
							// Timing wraps the run from outside: the scenario's
							// rng streams are seeded purely from (suite seed,
							// index) above, so the clock reads cannot perturb
							// results. A clock read is the one cost a nil
							// handle cannot skip, so an uninstrumented run
							// makes none.
							tm.started.Inc(wid)
							var t0 time.Time
							if cfg.Telemetry != nil {
								t0 = time.Now()
							}
							// Cells on a non-default backend dispatch through
							// the registry; the default (emulation) path stays
							// on the worker-resident zero-allocation runner.
							if cell.Backend == "" {
								oc.rec.Metrics, oc.err = runner.RunInto(sc)
							} else if be, ok := LookupBackend(cell.Backend); ok {
								oc.rec.Metrics, oc.err = be.Run(ctx, sc, BackendOptions{Telemetry: cfg.Telemetry, Shard: wid, Chaos: cfg.Chaos})
							} else {
								// Unreachable after Validate — defensive.
								oc.err = fmt.Errorf("%w: unknown backend %q", ErrBadSuite, cell.Backend)
							}
							if cfg.Telemetry != nil {
								d := int64(time.Since(t0))
								tm.busyNS.Add(wid, d)
								tm.durNS.Observe(wid, d)
							}
						}
					}
					br.outs = append(br.outs, oc)
					failed = oc.err != nil
				}
				// The send is unconditional: the aggregator drains the
				// channel until every worker has exited, so delivery cannot
				// block — and must not be skipped, or a dropped batch ahead
				// of a failure in fold order would mask the real scenario
				// error behind the cancellation it triggered.
				outcomes <- br
				if failed {
					cancel() // fail fast; the aggregator reports the error
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	// Aggregator: hand batches to emit in strict schedule order, with
	// out-of-order completions parked in a reorder ring. The batches claimed
	// and not yet emitted each hold one of the len(bufs) buffers, so they are
	// consecutive, start at next's batch and fit the ring one slot each.
	// Run's fold spans are fixed, so every floating-point result is
	// independent of scheduling and worker count, and a checkpoint file is
	// always an index-ordered prefix of the work.
	next := 0 // positions [0, next) are emitted
	pending := make([]*batchResult, len(bufs))
	slot := func(start int) int { return start / foldSpan % len(pending) }
	var firstErr error
	for br := range outcomes {
		// Scenario errors are captured on receipt, not in fold order: a
		// cancelled sibling worker may have delivered only a prefix of an
		// earlier batch, so the ordered fold might never reach the batch
		// that carries the real failure.
		if firstErr == nil {
			for i := range br.outs {
				if err := br.outs[i].err; err != nil {
					firstErr = fmt.Errorf("fleet: scenario %d (cell %d): %w",
						br.outs[i].rec.Index, br.outs[i].rec.Cell, err)
					break
				}
			}
		}
		pending[slot(br.start)] = br
		for firstErr == nil {
			b := pending[slot(next)]
			if b == nil || b.start != next {
				break
			}
			pending[slot(next)] = nil
			for i := range b.outs {
				if err := emit(&b.outs[i].rec, b.outs[i].fresh); err != nil {
					firstErr = err
					cancel()
					break
				}
				next++
			}
			free <- b
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if next != total {
		return fmt.Errorf("fleet: emitted %d of %d scenarios", next, total)
	}
	return nil
}
