package tolerance

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"tolerance/internal/emulation"
	"tolerance/internal/fleet"
)

// SuiteRef names a scenario suite for RunSuite and StreamSuite: a built-in
// by name, a JSON suite-definition file on disk, or an in-memory JSON
// document (the schema that SuiteJSON exports).
type SuiteRef struct {
	name string
	path string
	data []byte
}

// SuiteByName references a built-in suite (SuiteNames lists them).
func SuiteByName(name string) SuiteRef { return SuiteRef{name: name} }

// SuiteFromFile references a JSON suite definition on disk.
func SuiteFromFile(path string) SuiteRef { return SuiteRef{path: path} }

// SuiteFromJSON references an in-memory JSON suite definition.
func SuiteFromJSON(data []byte) SuiteRef { return SuiteRef{data: data} }

// String describes the reference for error messages.
func (r SuiteRef) String() string {
	switch {
	case r.name != "":
		return "suite " + r.name
	case r.path != "":
		return "suite file " + r.path
	case len(r.data) > 0:
		return "inline suite"
	}
	return "empty suite reference"
}

// resolve loads the referenced suite.
func (r SuiteRef) resolve() (fleet.Suite, error) {
	switch {
	case r.name != "":
		return fleet.Lookup(r.name)
	case r.path != "":
		return fleet.LoadSuiteFile(r.path)
	case len(r.data) > 0:
		return fleet.ParseSuite(r.data)
	}
	return fleet.Suite{}, errors.New("empty suite reference")
}

// SuiteNames lists the built-in scenario suites.
func SuiteNames() []string {
	suites := fleet.Builtin()
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.Name
	}
	return names
}

// SuiteJSON exports a suite as a versioned JSON document with every default
// made explicit — a complete, editable starting point for user-authored
// grids.
func SuiteJSON(ref SuiteRef) ([]byte, error) {
	suite, err := ref.resolve()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return fleet.DumpSuite(suite)
}

// ScenarioMetrics is one emulation run's evaluation metrics (§III-C).
type ScenarioMetrics struct {
	// Availability is T(A); QuorumAvailability additionally requires a
	// full service quorum (Prop. 1).
	Availability       float64
	QuorumAvailability float64
	// TimeToRecovery is T(R) in steps; RecoveryFrequency is F(R).
	TimeToRecovery    float64
	RecoveryFrequency float64
	// AvgNodes is the mean replication factor; AvgCost the eq. (5) cost.
	AvgNodes float64
	AvgCost  float64
	// Intrusions, Recoveries, Evictions and Additions count events.
	Intrusions, Recoveries int
	Evictions, Additions   int
	// ServiceLatencyMS is the mean latency of the requests that committed,
	// in milliseconds; only the "cluster" backend, which serves real
	// requests, measures it (zero elsewhere).
	ServiceLatencyMS float64
}

// ScenarioRecord is one executed scenario, streamed in fold (index) order
// while a suite run is in flight.
type ScenarioRecord struct {
	// Index is the scenario's position in suite expansion order; it also
	// derives the scenario's rng seed.
	Index int
	// Cell is the grid-cell index the scenario folds into.
	Cell int
	// Strategy is the cell's policy kind.
	Strategy string
	// Metrics holds the run's evaluation metrics.
	Metrics ScenarioMetrics
}

// publicMetrics converts the internal per-run metrics.
func publicMetrics(m emulation.Metrics) ScenarioMetrics {
	return ScenarioMetrics{
		Availability:       m.Availability,
		QuorumAvailability: m.QuorumAvailability,
		TimeToRecovery:     m.TimeToRecovery,
		RecoveryFrequency:  m.RecoveryFrequency,
		AvgNodes:           m.AvgNodes,
		AvgCost:            m.AvgCost,
		Intrusions:         m.Intrusions,
		Recoveries:         m.Recoveries,
		Evictions:          m.Evictions,
		Additions:          m.Additions,
		ServiceLatencyMS:   m.ServiceLatencyMS,
	}
}

// RunSuite executes a scenario suite on a bounded worker pool and returns
// the aggregated report. Results are deterministic for a given (suite,
// seed) regardless of worker count or sharding.
//
// Cancelling ctx stops the worker pool promptly and returns the context's
// error; record handlers (WithRecordHandler) have by then received an
// index-ordered prefix of the run, so a checkpoint written from the stream
// is always valid for resumption. Validation failures wrap ErrBadInput.
func RunSuite(ctx context.Context, ref SuiteRef, opts ...Option) (*FleetReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := collectOptions(opts)
	suite, err := ref.resolve()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if o.workers < 0 || o.steps < 0 || o.seedsPerCell < 0 || o.fitSamples < 0 {
		return nil, fmt.Errorf("%w: negative suite override", ErrBadInput)
	}
	if o.seed != 0 {
		suite.Seed = o.seed
	}
	if o.steps != 0 {
		suite.Steps = o.steps
	}
	if o.seedsPerCell != 0 {
		suite.SeedsPerCell = o.seedsPerCell
	}
	if o.fitSamples != 0 {
		suite.FitSamples = o.fitSamples
	}

	var shard fleet.Shard
	if o.shard != "" {
		if shard, err = fleet.ParseShard(o.shard); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
	}

	cache := fleet.NewStrategyCache()
	cfg := fleet.Config{
		Workers:   o.workers,
		Cache:     cache,
		Shard:     shard,
		Progress:  o.progress,
		Telemetry: o.telemetry.collector(),
	}
	cache.Instrument(cfg.Telemetry)
	if len(o.records) > 0 {
		cells := suite.Cells()
		handlers := o.records
		cfg.OnRecord = func(rec fleet.RunRecord) error {
			out := ScenarioRecord{
				Index:    rec.Index,
				Cell:     rec.Cell,
				Strategy: string(cells[rec.Cell].Policy),
				Metrics:  publicMetrics(rec.Metrics),
			}
			for _, h := range handlers {
				if err := h(out); err != nil {
					return err
				}
			}
			return nil
		}
	}

	res, err := fleet.Run(ctx, suite, cfg)
	if err != nil {
		if errors.Is(err, fleet.ErrBadSuite) {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		return nil, err
	}
	return reportFrom(res, cache.Stats()), nil
}

// StreamSuite runs a suite and yields its per-scenario records as they
// fold, in index order — the iterator form of WithRecordHandler. A non-nil
// error is yielded once, last, if the run fails; breaking out of the loop
// cancels the remaining work. The aggregated report is not produced; use
// RunSuite with WithRecordHandler to stream and aggregate in one pass.
func StreamSuite(ctx context.Context, ref SuiteRef, opts ...Option) iter.Seq2[ScenarioRecord, error] {
	return func(yield func(ScenarioRecord, error) bool) {
		errStop := errors.New("tolerance: stream stopped")
		streamOpts := append(append([]Option(nil), opts...),
			WithRecordHandler(func(rec ScenarioRecord) error {
				if !yield(rec, nil) {
					return errStop
				}
				return nil
			}))
		if _, err := RunSuite(ctx, ref, streamOpts...); err != nil && !errors.Is(err, errStop) {
			yield(ScenarioRecord{}, err)
		}
	}
}

// FleetCellMetrics is one grid cell of a fleet report: a concrete
// model/workload/size/policy configuration with its evaluation metrics
// (means with 95% confidence half-widths) streamed over the cell's seeds.
type FleetCellMetrics struct {
	Strategy              string
	PA, PC1, PC2, PU, Eta float64
	WorkloadLambda        float64
	WorkloadService       float64
	N1, SMax, DeltaR, F   int
	Runs                  int

	Availability, AvailabilityCI      float64
	QuorumAvailability, QuorumCI      float64
	TimeToRecovery, TimeToRecoveryCI  float64
	RecoveryFrequency, RecoveryFreqCI float64
	AvgNodes, AvgNodesCI              float64
	AvgCost, AvgCostCI                float64
}

// FleetReport is the result of one fleet-suite execution.
type FleetReport struct {
	// Suite is the executed suite's name; Seed its master seed.
	Suite string
	Seed  int64
	// Scenarios is the number of emulation runs executed.
	Scenarios int
	// Cells holds one aggregated entry per grid cell, in expansion order.
	Cells []FleetCellMetrics
	// RecoverySolves and ReplicationSolves count the distinct control
	// problems actually solved; CacheHits counts requests the strategy
	// cache answered without solving or rebuilding a policy.
	RecoverySolves    int
	ReplicationSolves int
	CacheHits         int
}

// reportFrom converts the engine result and cache statistics into the
// public report.
func reportFrom(res *fleet.Result, stats fleet.CacheStats) *FleetReport {
	report := &FleetReport{
		Suite:             res.Suite,
		Seed:              res.Seed,
		Scenarios:         res.Scenarios,
		Cells:             make([]FleetCellMetrics, len(res.Cells)),
		RecoverySolves:    int(stats.RecoverySolves),
		ReplicationSolves: int(stats.ReplicationSolves),
		CacheHits:         int(stats.RecoveryHits + stats.ReplicationHits + stats.PolicyHits),
	}
	for i, c := range res.Cells {
		a := c.Aggregate
		report.Cells[i] = FleetCellMetrics{
			Strategy:           string(c.Cell.Policy),
			PA:                 c.Cell.PA,
			PC1:                c.Cell.PC1,
			PC2:                c.Cell.PC2,
			PU:                 c.Cell.PU,
			Eta:                c.Cell.Eta,
			WorkloadLambda:     c.Cell.Workload.Lambda,
			WorkloadService:    c.Cell.Workload.MeanServiceSteps,
			N1:                 c.Cell.N1,
			SMax:               c.Cell.SMax,
			DeltaR:             c.Cell.DeltaR,
			F:                  c.Cell.F,
			Runs:               int(c.Runs),
			Availability:       a.Availability.Mean,
			AvailabilityCI:     a.Availability.CI,
			QuorumAvailability: a.QuorumAvailability.Mean,
			QuorumCI:           a.QuorumAvailability.CI,
			TimeToRecovery:     a.TimeToRecovery.Mean,
			TimeToRecoveryCI:   a.TimeToRecovery.CI,
			RecoveryFrequency:  a.RecoveryFrequency.Mean,
			RecoveryFreqCI:     a.RecoveryFrequency.CI,
			AvgNodes:           a.AvgNodes.Mean,
			AvgNodesCI:         a.AvgNodes.CI,
			AvgCost:            a.Cost.Mean,
			AvgCostCI:          a.Cost.CI,
		}
	}
	return report
}
