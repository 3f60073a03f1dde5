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

// fold is the ordered frontier every Result is built behind: Run's
// aggregator, MergeRecords and the coordinator's ingest hand it records in
// schedule order. It owns the span-fold — a Welford partial per run of
// same-cell positions inside each foldSpan-wide span, merged into the
// cell's accumulator when the next partial opens — and the ordered side
// effects: onRecord (the checkpoint hook), the fold counters, progress.
type fold struct {
	suite Suite
	cells []Cell
	total int
	next  int // positions [0, next) are folded

	accs     []emulation.Accumulator
	part     emulation.Accumulator
	partCell int // -1 while no partial is open

	onRecord func(RunRecord) error
	progress func(done, total int)

	folded, replayed, merges *telemetry.Counter
}

func newFold(suite Suite, cells []Cell, total int, onRecord func(RunRecord) error,
	progress func(done, total int), col *telemetry.Collector) *fold {
	return &fold{
		suite:    suite,
		cells:    cells,
		total:    total,
		accs:     make([]emulation.Accumulator, len(cells)),
		partCell: -1,
		onRecord: onRecord,
		progress: progress,
		folded:   col.Counter(MetricScenariosFolded),
		replayed: col.Counter(MetricScenariosReplayed),
		merges:   col.Counter(MetricFoldMerges),
	}
}

// add folds rec at position next; fresh records (executed, not replayed
// from storage) are delivered to onRecord.
func (f *fold) add(rec *RunRecord, fresh bool) error {
	if f.next%foldSpan == 0 || rec.Cell != f.partCell {
		f.closePartial()
		f.partCell = rec.Cell
	}
	f.part.Add(&rec.Metrics)
	f.next++
	f.folded.Inc()
	if !fresh {
		f.replayed.Inc()
	}
	if fresh && f.onRecord != nil {
		if err := f.onRecord(*rec); err != nil {
			return fmt.Errorf("fleet: record scenario %d: %w", rec.Index, err)
		}
	}
	if f.progress != nil {
		f.progress(f.next, f.total)
	}
	return nil
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

// checkCompleted is the one rule Run (-resume), MergeRecords (-merge) and
// the coordinator (resume and the wire) apply to a stored or received
// record before it folds: scenario idx lies in the suite and the shard, and
// the record carries the cell idx expands to.
func checkCompleted(idx int, rec *RunRecord, total, seedsPerCell int, shard Shard) error {
	switch {
	case idx < 0 || idx >= total:
		return fmt.Errorf("%w: scenario %d is outside the suite (%d scenarios)", ErrBadSuite, idx, total)
	case !shard.Contains(idx):
		return fmt.Errorf("%w: scenario %d is outside shard %s", ErrBadSuite, idx, shard)
	case rec.Cell != idx/seedsPerCell:
		return fmt.Errorf("%w: scenario %d records cell %d, want %d", ErrBadSuite, idx, rec.Cell, idx/seedsPerCell)
	}
	return nil
}
