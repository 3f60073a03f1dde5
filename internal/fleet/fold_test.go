package fleet

import (
	"bytes"
	"math"
	"testing"

	"tolerance/internal/emulation"
	"tolerance/internal/telemetry"
)

// spanFoldOracle spells out the fold tree for records at consecutive
// schedule positions: a fresh partial per run of same-cell positions inside
// each foldSpan-wide span, merged into its cell in schedule order. It
// returns the per-cell accumulators and the number of merges.
func spanFoldOracle(recs []RunRecord, numCells int) ([]emulation.Accumulator, int) {
	accs := make([]emulation.Accumulator, numCells)
	merges := 0
	for start := 0; start < len(recs); start += foldSpan {
		end := min(start+foldSpan, len(recs))
		for pos := start; pos < end; {
			cell := recs[pos].Cell
			var part emulation.Accumulator
			for ; pos < end && recs[pos].Cell == cell; pos++ {
				part.Add(&recs[pos].Metrics)
			}
			accs[cell].Merge(&part)
			merges++
		}
	}
	return accs, merges
}

// TestFoldSpanTopology pins the fold tree every Result is built from —
// Run, MergeRecords and the coordinator all fold through it, so it is the
// one place a change to the partial boundaries would show. Cells here are
// five seeds wide, so spans split cells and cells split spans; the sharded
// leg folds positions that are not indices.
func TestFoldSpanTopology(t *testing.T) {
	suite := testSuite().withDefaults()
	suite.SeedsPerCell = 5
	cells := suite.Cells()
	total := suite.NumScenarios()
	recs := make([]RunRecord, total)
	for i := range recs {
		x := float64(i)
		recs[i] = RunRecord{Index: i, Cell: i / suite.SeedsPerCell, Metrics: emulation.Metrics{
			Availability:       1 / (x + 3),
			QuorumAvailability: math.Sqrt(x) / 7,
			TimeToRecovery:     math.Mod(x*x, 17) + 0.1,
			RecoveryFrequency:  x / 1e3,
			AvgNodes:           3 + math.Sin(x),
			AvgCost:            math.Exp(-x / 9),
		}}
	}
	var sharded []RunRecord
	for _, idx := range (Shard{Index: 1, Count: 3}).Indices(total) {
		sharded = append(sharded, recs[idx])
	}

	for name, sched := range map[string][]RunRecord{"whole": recs, "shard 1/3": sharded} {
		col := telemetry.New()
		f := newFold(suite, cells, len(sched), nil, nil, col)
		for i := range sched {
			if err := f.add(&sched[i], false); err != nil {
				t.Fatal(err)
			}
		}
		got := f.result()
		want, merges := spanFoldOracle(sched, len(cells))
		for c := range cells {
			if got.Cells[c].Runs != want[c].Runs() {
				t.Errorf("%s: cell %d folded %d runs, want %d", name, c, got.Cells[c].Runs, want[c].Runs())
			}
			if !bytes.Equal(mustMarshal(t, got.Cells[c].Aggregate), mustMarshal(t, want[c].AggregateValue())) {
				t.Errorf("%s: cell %d aggregate differs from the span-fold oracle", name, c)
			}
		}
		if got := col.Snapshot().Counter(MetricFoldMerges); got != int64(merges) {
			t.Errorf("%s: fleet.fold_merges = %d, want %d", name, got, merges)
		}
	}
}
