package fleet

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard selects a deterministic slice of a suite's expanded scenario index
// set: shard i of n runs exactly the indices with index mod n == i.
// Round-robin assignment interleaves the seeds of every grid cell across
// shards, so expensive cells spread evenly and n machines finish together.
// The zero value (Count 0) means "the whole suite".
type Shard struct {
	// Index identifies this shard, 0 <= Index < Count.
	Index int `json:"index"`
	// Count is the total number of shards; 0 or 1 disables sharding.
	Count int `json:"count"`
}

// ParseShard parses the CLI form "i/n" (e.g. "0/4").
func ParseShard(s string) (Shard, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(cnt)
	if !ok || err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("%w: shard %q, want i/n", ErrBadSuite, s)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate checks the shard bounds.
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 || (s.Count > 0 && s.Index >= s.Count) {
		return fmt.Errorf("%w: shard %d/%d", ErrBadSuite, s.Index, s.Count)
	}
	return nil
}

// IsWhole reports whether the shard covers every scenario.
func (s Shard) IsWhole() bool { return s.Count <= 1 }

// Contains reports whether the scenario index belongs to this shard.
func (s Shard) Contains(index int) bool {
	return s.IsWhole() || index%s.Count == s.Index
}

// Indices enumerates the shard's scenario indices in ascending order, out
// of a suite with the given total scenario count.
func (s Shard) Indices(total int) []int {
	out := make([]int, s.size(total))
	for pos := range out {
		out[pos] = s.index(pos)
	}
	return out
}

// size is the number of the shard's scenarios out of total.
func (s Shard) size(total int) int {
	if s.IsWhole() {
		return total
	}
	return (total - s.Index + s.Count - 1) / s.Count
}

// index is the scenario at position pos of the shard's ascending indices.
func (s Shard) index(pos int) int { return s.Index + pos*max(s.Count, 1) }

// String formats the shard as "i/n" ("0/1" for a whole run).
func (s Shard) String() string {
	if s.IsWhole() {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// MergeRecords folds per-scenario run records — the union of one or more
// shard result files — back into the aggregate Result a single-machine run
// of the suite would produce. The records must cover the suite's scenario
// index set exactly (the error names the first scenario missing, such as
// one whose line a shard file holds damaged); they are the stored records
// of the same ordered fold as a whole run, index i at position i, so every
// floating-point operation happens in the same order with the same
// operands as in an unsharded run and the merged Result serializes
// byte-identically.
func MergeRecords(suite Suite, records *RecordTable) (*Result, error) {
	suite = suite.withDefaults()
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	f, err := newFold(suite, suite.Cells(), Shard{}, records, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	f.replay()
	if f.next < f.total {
		return nil, fmt.Errorf("%w: merge is missing scenario %d", ErrBadSuite, f.next)
	}
	return f.result(), nil
}
