package fleet

import (
	"bytes"
	"fmt"
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
// leg folds positions that are not indices. Each leg folds its records as
// executed ones (add), as stored ones (replay) and as every third position
// stored, the rest executed.
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

	for _, shard := range []Shard{{}, {Index: 1, Count: 3}} {
		var sched []RunRecord
		for _, idx := range shard.Indices(total) {
			sched = append(sched, recs[idx])
		}
		want, merges := spanFoldOracle(sched, len(cells))
		for _, every := range []int{0, 1, 3} { // every'th position stored; 0: none
			name := fmt.Sprintf("shard %s, every %d stored", shard, every)
			var stored, executed []RunRecord
			for pos, rec := range sched {
				if every > 0 && pos%every == 0 {
					stored = append(stored, rec)
				} else {
					executed = append(executed, rec)
				}
			}
			col := telemetry.New()
			f, err := newFold(suite, cells, shard, storedTable(total, shard, stored), nil, nil, col)
			if err != nil {
				t.Fatal(err)
			}
			f.replay()
			for i := range executed {
				if err := f.add(&executed[i]); err != nil {
					t.Fatal(err)
				}
			}
			if f.next != len(sched) {
				t.Fatalf("%s: folded %d of %d positions", name, f.next, len(sched))
			}
			got := f.result()
			for c := range cells {
				if got.Cells[c].Runs != want[c].Runs() {
					t.Errorf("%s: cell %d folded %d runs, want %d", name, c, got.Cells[c].Runs, want[c].Runs())
				}
				if !bytes.Equal(mustMarshal(t, got.Cells[c].Aggregate), mustMarshal(t, want[c].AggregateValue())) {
					t.Errorf("%s: cell %d aggregate differs from the span-fold oracle", name, c)
				}
			}
			s := col.Snapshot()
			if got := s.Counter(MetricFoldMerges); got != int64(merges) {
				t.Errorf("%s: fleet.fold_merges = %d, want %d", name, got, merges)
			}
			if got := s.Counter(MetricScenariosReplayed); got != int64(len(stored)) {
				t.Errorf("%s: fleet.scenarios_replayed = %d, want %d", name, got, len(stored))
			}
		}
	}
}

// storedTable is a table of shard's scenarios out of total holding recs.
func storedTable(total int, shard Shard, recs []RunRecord) *RecordTable {
	t := newRecordTable(total, shard)
	for i := range recs {
		if claimed, _ := t.claim(&recs[i], 1); claimed {
			t.n++
		}
	}
	return t
}
