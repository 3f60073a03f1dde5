package fleet

import (
	"fmt"

	"tolerance/internal/emulation"
	"tolerance/internal/telemetry"
)

// foldSpan is the fixed width, in scheduled positions, of one dispatch
// batch and one fold partial. It is a constant — never a function of the
// worker or core count — because the partial boundaries are part of the
// determinism contract: whole runs, shard-merges, resumes and coordinator
// runs share one floating-point fold tree and so serialize identically.
const foldSpan = 8

// fold is the ordered frontier every Result is built behind, and the one
// place a stored record enters one. It covers a shard's scenarios by
// schedule position — position i is scenario shard.Index + i·shard.Count —
// and folds each position once: an executed record when Run's aggregator
// or the coordinator's ingest hands it over with add, a stored one (a
// resumed checkpoint's, a merged shard set's) when the frontier reaches its
// position. It owns the span-fold — a Welford partial per run of same-cell
// positions inside each foldSpan-wide span, merged into the cell's
// accumulator when the next partial opens — and the ordered side effects:
// onRecord (the checkpoint hook, executed records only), the fold
// counters, progress.
type fold struct {
	suite Suite
	cells []Cell
	shard Shard
	total int // scheduled positions
	next  int // positions [0, next) are folded

	// stored holds the records to fold instead of executing (nil: none),
	// checked once by newFold; storedAhead of them lie past the frontier.
	stored      *RecordTable
	storedAhead int

	accs     []emulation.Accumulator
	part     emulation.Accumulator
	partCell int // -1 while no partial is open

	onRecord func(RunRecord) error
	progress func(done, total int)

	folded, replayed, merges *telemetry.Counter
}

// newFold is the fold of shard's scenarios of suite (with its defaults),
// whose cells are cells. Every stored record must pass checkCompleted.
func newFold(suite Suite, cells []Cell, shard Shard, stored *RecordTable, onRecord func(RunRecord) error,
	progress func(done, total int), col *telemetry.Collector) (*fold, error) {
	gridTotal := suite.NumScenarios()
	for rec := range stored.records() {
		if err := checkCompleted(rec, gridTotal, suite.SeedsPerCell, shard); err != nil {
			return nil, err
		}
	}
	return &fold{
		suite:       suite,
		cells:       cells,
		shard:       shard,
		total:       shard.size(gridTotal),
		stored:      stored,
		storedAhead: stored.Len(),
		accs:        make([]emulation.Accumulator, len(cells)),
		partCell:    -1,
		onRecord:    onRecord,
		progress:    progress,
		folded:      col.Counter(MetricScenariosFolded),
		replayed:    col.Counter(MetricScenariosReplayed),
		merges:      col.Counter(MetricFoldMerges),
	}, nil
}

// replay folds the stored records from the frontier on, up to the first
// position that has none. A caller runs it once before its first add; add
// runs it after every record, so the frontier never rests on a stored
// record.
func (f *fold) replay() {
	for f.next < f.total {
		rec, ok := f.stored.get(f.shard.index(f.next))
		if !ok {
			return
		}
		f.put(rec)
		f.storedAhead--
		f.replayed.Inc()
	}
}

// add hands the executed record rec, the scenario at the frontier, to
// onRecord, folds it and replays the stored records after it.
func (f *fold) add(rec *RunRecord) error {
	if f.onRecord != nil {
		if err := f.onRecord(*rec); err != nil {
			return fmt.Errorf("fleet: record scenario %d: %w", rec.Index, err)
		}
	}
	f.put(rec)
	f.replay()
	return nil
}

// put folds rec at position next.
func (f *fold) put(rec *RunRecord) {
	if f.next%foldSpan == 0 || rec.Cell != f.partCell {
		f.closePartial()
		f.partCell = rec.Cell
	}
	f.part.Add(&rec.Metrics)
	f.next++
	f.folded.Inc()
	if f.progress != nil {
		f.progress(f.next, f.total)
	}
}

// closePartial merges the open partial into its cell's accumulator.
func (f *fold) closePartial() {
	if f.partCell < 0 {
		return
	}
	f.accs[f.partCell].Merge(&f.part)
	f.part, f.partCell = emulation.Accumulator{}, -1
	f.merges.Inc()
}

// result closes the last partial and reports the per-cell aggregates.
func (f *fold) result() *Result {
	f.closePartial()
	out := &Result{
		Suite:     f.suite.Name,
		Seed:      f.suite.Seed,
		Scenarios: f.total,
		Cells:     make([]CellResult, len(f.cells)),
	}
	for i := range f.cells {
		out.Cells[i] = CellResult{
			Cell:      f.cells[i],
			Runs:      f.accs[i].Runs(),
			Aggregate: f.accs[i].AggregateValue(),
		}
	}
	return out
}

// checkCompleted is the one rule a stored record (newFold: -resume, -merge,
// a resumed coordinator) and a received one (the coordinator's ingest)
// pass before they fold: its scenario lies in the suite and the shard, and
// it carries the cell its index expands to.
func checkCompleted(rec *RunRecord, total, seedsPerCell int, shard Shard) error {
	switch idx := rec.Index; {
	case idx < 0 || idx >= total:
		return fmt.Errorf("%w: scenario %d is outside the suite (%d scenarios)", ErrBadSuite, idx, total)
	case !shard.Contains(idx):
		return fmt.Errorf("%w: scenario %d is outside shard %s", ErrBadSuite, idx, shard)
	case rec.Cell != idx/seedsPerCell:
		return fmt.Errorf("%w: scenario %d records cell %d, want %d", ErrBadSuite, idx, rec.Cell, idx/seedsPerCell)
	}
	return nil
}
