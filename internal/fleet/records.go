package fleet

import (
	"iter"
	"sync/atomic"
)

// RecordTable holds completed run records addressed by scenario index: a
// checkpoint's records, a shard set's union, the records a resumed run
// folds instead of executing. A reader sizes it by the scenarios its
// records may have — a checkpoint's by its shard's, a shard set's by the
// suite's — so a lookup is a slice index and a shard set's files fill one
// table instead of each filling a map that is then copied. A nil table
// holds no records.
type RecordTable struct {
	// shard is the slice of the index set the slots cover: slot i holds
	// scenario i·Count + Index (i itself for a whole table).
	shard Shard
	recs  []RunRecord
	// from marks a slot present: 0 while empty, otherwise the number of
	// the file (1-based, in ReadShardSet's argument order) whose record it
	// holds. Files claim slots concurrently.
	from []atomic.Int32
	n    int // present slots
}

// newRecordTable is a table for the scenarios of shard among total.
func newRecordTable(total int, shard Shard) *RecordTable {
	size := shard.size(total)
	return &RecordTable{shard: shard, recs: make([]RunRecord, size), from: make([]atomic.Int32, size)}
}

// Len is the number of records the table holds.
func (t *RecordTable) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// slot returns the slot of scenario idx, if the table has one.
func (t *RecordTable) slot(idx int) (int, bool) {
	if idx < 0 || !t.shard.Contains(idx) {
		return 0, false
	}
	s := idx / max(t.shard.Count, 1)
	return s, s < len(t.from)
}

// file returns the number of the file whose record the slot of scenario
// idx holds, 0 if none.
func (t *RecordTable) file(idx int) int32 {
	if s, ok := t.slot(idx); ok {
		return t.from[s].Load()
	}
	return 0
}

// get returns the record of scenario idx, if the table holds one.
func (t *RecordTable) get(idx int) (*RunRecord, bool) {
	if t == nil {
		return nil, false
	}
	s, ok := t.slot(idx)
	if !ok || t.from[s].Load() == 0 {
		return nil, false
	}
	return &t.recs[s], true
}

// records yields the held records in index order.
func (t *RecordTable) records() iter.Seq[*RunRecord] {
	return func(yield func(*RunRecord) bool) {
		if t == nil {
			return
		}
		for i := range t.from {
			if t.from[i].Load() != 0 && !yield(&t.recs[i]) {
				return
			}
		}
	}
}

// claim stores rec, read from the given file, in its slot. A later record
// of the same file replaces an earlier one, as a map insert would; a slot
// another file holds is left alone and reported as a clash. claimed
// reports a slot that was empty. The table must have a slot for
// rec.Index.
func (t *RecordTable) claim(rec *RunRecord, file int32) (claimed, clash bool) {
	s, _ := t.slot(rec.Index)
	if t.from[s].CompareAndSwap(0, file) {
		claimed = true
	} else if t.from[s].Load() != file {
		return false, true
	}
	t.recs[s] = *rec
	return claimed, false
}
