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
// positions, [start, start+len(outs)). An execution takes a fixed set of
// them from its plan's pool up front; workers take one per batch, the
// aggregator returns it after folding.
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
// not the grid's, the session fits once, and a lease finds the runners
// and buffers of the leases before it in the plan's pool.
type plan struct {
	suite Suite
	cells []Cell
	fp    string
	fits  *emulation.FitSet // nil until fit
	pool  execPool
}

// execPool holds what the executions of one plan take and give back: the
// emulation runners, whose node pools, rng streams and scratch outlive the
// execution that grew them, and the executions' shared state and buffers.
// Executions of one plan may run at once, so each takes its own rather than
// a slot per worker index: a worker goroutine takes a runner when it starts
// and gives it back before it exits, and an execution takes its state when
// it starts and gives it back once every worker of it has exited.
type execPool struct {
	mu      sync.Mutex
	runners []*emulation.Runner
	execs   []*execution
}

// runner takes a runner, a fresh one if none is free.
func (p *execPool) runner() *emulation.Runner {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.runners)
	if n == 0 {
		return emulation.NewRunner()
	}
	r := p.runners[n-1]
	p.runners = p.runners[:n-1]
	return r
}

// putRunner gives a runner back.
func (p *execPool) putRunner(r *emulation.Runner) {
	p.mu.Lock()
	p.runners = append(p.runners, r)
	p.mu.Unlock()
}

// execution is what one plan.execute shares with its workers: the
// schedule and its configuration, the batch counter, the batch buffers
// with the channel they wait in for a worker and the ring they wait in for
// the fold, the outcome channel and the scheduled cells' states.
type execution struct {
	p          *plan
	ctx        context.Context
	cancel     context.CancelFunc
	cfg        Config
	tm         fleetMetrics
	sched      []int
	fitSeed    int64
	firstCell  int
	numBatches int
	nextBatch  atomic.Int64

	bufs    []batchResult
	free    chan *batchResult
	pending []*batchResult
	// outcomes carries the workers' batches to the fold, and a nil from
	// each worker as it exits.
	outcomes chan *batchResult
	// states resolves each scheduled cell's policy and scenario template
	// at most once per execution (replayed cells not at all), with an
	// allocation-free fast path after the first resolution. It spans only
	// the cells the schedule touches — a lease's one or two, not the
	// grid's thousands.
	states []cellState
}

// takeExecution takes an execution of sched under cfg (with its defaults)
// from the pool: its buffers all free, its ring empty, its cells
// unresolved.
func (p *plan) takeExecution(ctx context.Context, sched []int, cfg Config) *execution {
	p.pool.mu.Lock()
	var e *execution
	if n := len(p.pool.execs); n > 0 {
		e = p.pool.execs[n-1]
		p.pool.execs = p.pool.execs[:n-1]
	}
	p.pool.mu.Unlock()
	if e == nil {
		e = &execution{p: p}
	}
	total := len(sched)
	e.ctx, e.cancel = context.WithCancel(ctx)
	e.cfg, e.sched, e.tm = cfg, sched, newFleetMetrics(cfg.Telemetry)
	e.fitSeed = emulation.FitStreamSeed(p.suite.Seed)
	e.firstCell = sched[0] / p.suite.SeedsPerCell
	e.numBatches = (total + foldSpan - 1) / foldSpan
	e.nextBatch.Store(0)
	n := min(e.numBatches, batchesPerWorker*cfg.Workers)
	if len(e.bufs) < n {
		e.bufs = make([]batchResult, n)
		e.free = make(chan *batchResult, n)
	}
	for i := range e.bufs[:n] {
		e.bufs[i].outs = e.bufs[i].arr[:0]
		e.free <- &e.bufs[i]
	}
	e.pending = append(e.pending[:0], make([]*batchResult, n)...)
	if cap(e.outcomes) < cfg.Workers {
		e.outcomes = make(chan *batchResult, cfg.Workers)
	}
	e.states = append(e.states[:0], make([]cellState, sched[total-1]/p.suite.SeedsPerCell-e.firstCell+1)...)
	return e
}

// putExecution gives e back once every worker of it has exited.
func (p *plan) putExecution(e *execution) {
	e.cancel()
	for len(e.free) > 0 {
		<-e.free
	}
	clear(e.pending)
	clear(e.states)
	e.ctx, e.cancel, e.cfg, e.sched = nil, nil, Config{}, nil
	p.pool.mu.Lock()
	p.pool.execs = append(p.pool.execs, e)
	p.pool.mu.Unlock()
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
//
// Workers claim index-contiguous batches of scheduled positions through
// one atomic counter — one channel round-trip per batch instead of two per
// scenario — and execute them on an emulation runner from the plan's pool,
// whose node pool, rng streams and scratch survive from scenario to
// scenario and from execution to execution. The outcome buffers come from
// the plan's pool too and cycle between the workers and the fold, so the
// per-scenario path allocates nothing, an execution allocates the same
// number of times however its workers are scheduled, and a warm worker
// session's lease allocates the same number of times however many
// scenarios it holds.
func (p *plan) execute(ctx context.Context, sched []int, cfg Config, emit func(rec *RunRecord, fresh bool) error) error {
	e := p.takeExecution(ctx, sched, cfg.withDefaults())
	defer p.putExecution(e)
	for w := 0; w < e.cfg.Workers; w++ {
		go e.work(w)
	}
	return e.fold(emit)
}

// work is worker wid's loop: claim a batch with a free buffer in hand, run
// its scenarios, send it to the fold, until the batches run out, the
// execution is cancelled or a scenario fails. Its last send is a nil, after
// its runner is back in the pool.
func (e *execution) work(wid int) {
	p, cfg, tm := e.p, &e.cfg, &e.tm
	suite := &p.suite
	runner := p.pool.runner()
	defer func() {
		p.pool.putRunner(runner)
		e.outcomes <- nil
	}()
	// The hook is a closure allocation a nil handle cannot skip. A pooled
	// runner's hook is set or cleared every execution, so an execution
	// never observes into an earlier one's collector.
	if cfg.Telemetry != nil {
		h := tm.steps
		runner.OnRun(func(steps int) { h.Observe(wid, int64(steps)) })
	} else {
		runner.OnRun(nil)
	}
	for e.ctx.Err() == nil {
		// Every claimed batch not yet folded holds a buffer, so the batch
		// the fold waits for is always in some worker's hands and waiting
		// here for a free buffer cannot deadlock.
		var br *batchResult
		select {
		case br = <-e.free:
		case <-e.ctx.Done():
			return
		}
		bi := int(e.nextBatch.Add(1)) - 1
		if bi >= e.numBatches {
			e.free <- br // for the next worker to find the batches gone
			return
		}
		tm.batches.Inc(wid)
		start := bi * foldSpan
		end := min(start+foldSpan, len(e.sched))
		br.start = start
		br.outs = br.outs[:0]
		failed := false
		for pos := start; pos < end && !failed; pos++ {
			if e.ctx.Err() != nil {
				break // cancelled mid-batch: deliver the executed prefix
			}
			idx := e.sched[pos]
			cell := &p.cells[idx/suite.SeedsPerCell]
			oc := outcome{rec: RunRecord{Index: idx, Cell: cell.Index}, fresh: true}
			if rec, ok := cfg.Completed.get(idx); ok {
				oc.rec.Metrics, oc.fresh = rec.Metrics, false
			} else {
				st := &e.states[cell.Index-e.firstCell]
				st.once.Do(func() { st.sc, st.err = cfg.Cache.scenarioFor(e.ctx, p.fp, cell, *suite) })
				if st.err != nil {
					oc.err = st.err
				} else {
					sc := st.sc
					sc.Seed = scenarioSeed(suite.Seed, idx)
					sc.FitSeed = e.fitSeed
					sc.Fits = p.fits
					// Timing wraps the run from outside: the scenario's rng
					// streams are seeded purely from (suite seed, index)
					// above, so the clock reads cannot perturb results. A
					// clock read is the one cost a nil handle cannot skip,
					// so an uninstrumented run makes none.
					tm.started.Inc(wid)
					var t0 time.Time
					if cfg.Telemetry != nil {
						t0 = time.Now()
					}
					// Cells on a non-default backend dispatch through the
					// registry; the default (emulation) path stays on the
					// worker's zero-allocation runner.
					if cell.Backend == "" {
						oc.rec.Metrics, oc.err = runner.RunInto(sc)
					} else if be, ok := LookupBackend(cell.Backend); ok {
						oc.rec.Metrics, oc.err = be.Run(e.ctx, sc, BackendOptions{Telemetry: cfg.Telemetry, Shard: wid, Chaos: cfg.Chaos})
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
		// The send is unconditional: the fold drains the channel until
		// every worker has exited, so delivery cannot block — and must not
		// be skipped, or a dropped batch ahead of a failure in fold order
		// would mask the real scenario error behind the cancellation it
		// triggered.
		e.outcomes <- br
		if failed {
			e.cancel() // fail fast; the fold reports the error
			return
		}
	}
}

// fold hands the workers' batches to emit in strict schedule order, with
// out-of-order completions parked in a reorder ring, until every worker has
// exited. The batches claimed and not yet emitted each hold one of the
// len(pending) buffers, so they are consecutive, start at next's batch and
// fit the ring one slot each. Run's fold spans are fixed, so every
// floating-point result is independent of scheduling and worker count, and
// a checkpoint file is always an index-ordered prefix of the work.
func (e *execution) fold(emit func(rec *RunRecord, fresh bool) error) error {
	pending := e.pending
	next := 0 // positions [0, next) are emitted
	slot := func(start int) int { return start / foldSpan % len(pending) }
	var firstErr error
	for running := e.cfg.Workers; running > 0; {
		br := <-e.outcomes
		if br == nil {
			running--
			continue
		}
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
					e.cancel()
					break
				}
				next++
			}
			e.free <- b
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if next != len(e.sched) {
		return fmt.Errorf("fleet: emitted %d of %d scenarios", next, len(e.sched))
	}
	return nil
}
