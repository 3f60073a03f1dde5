package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {Index: 0, Count: 1},
		"0/4": {Index: 0, Count: 4},
		"3/4": {Index: 3, Count: 4},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "1", "1/", "/2", "a/2", "1/b", "2/2", "-1/2", "1/-2", "1/2/3"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) should fail", in)
		}
	}
}

// FuzzParseShard: a shard ParseShard accepts is valid and reads back from
// its canonical "i/n" spelling as the same value.
func FuzzParseShard(f *testing.F) {
	for _, in := range []string{"0/1", "3/4", "0/0", "+1/2", "01/02", "2/2", "-1/2", "1/2/3", "9223372036854775807/9223372036854775807"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sh, err := ParseShard(in)
		if err != nil {
			return
		}
		if err := sh.Validate(); err != nil {
			t.Fatalf("ParseShard(%q) = %v, which fails Validate: %v", in, sh, err)
		}
		canon := fmt.Sprintf("%d/%d", sh.Index, sh.Count)
		if back, err := ParseShard(canon); err != nil || back != sh {
			t.Fatalf("ParseShard(%q) = %v; its spelling %q reads back as %v, %v", in, sh, canon, back, err)
		}
	})
}

// TestShardPartition: every shard split of an index set is a disjoint,
// complete partition, and the whole shard contains everything.
func TestShardPartition(t *testing.T) {
	const total = 97
	for n := 1; n <= 5; n++ {
		seen := make([]int, total)
		for i := 0; i < n; i++ {
			sh := Shard{Index: i, Count: n}
			for _, idx := range sh.Indices(total) {
				if !sh.Contains(idx) {
					t.Fatalf("shard %s Indices/Contains disagree at %d", sh, idx)
				}
				seen[idx]++
			}
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, idx, c)
			}
		}
	}
	if (Shard{}).String() != "0/1" || !(Shard{}).IsWhole() {
		t.Error("zero shard is not the whole run")
	}
}

// collectRecords runs the suite (optionally one shard of it) and returns
// the result plus every record emitted through OnRecord.
func collectRecords(t *testing.T, suite Suite, shard Shard, completed *RecordTable) (*Result, []RunRecord) {
	t.Helper()
	var recs []RunRecord
	res, err := Run(context.Background(), suite, Config{
		Workers:   4,
		Shard:     shard,
		Completed: completed,
		OnRecord:  func(r RunRecord) error { recs = append(recs, r); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, recs
}

// tableOf holds a map's records in a record table.
func tableOf(recs map[int]RunRecord) *RecordTable {
	size := 0
	for idx := range recs {
		size = max(size, idx+1)
	}
	t := newRecordTable(size, Shard{})
	for _, rec := range recs {
		if claimed, _ := t.claim(&rec, 1); claimed {
			t.n++
		}
	}
	return t
}

// TestShardMergeByteIdentical is the scale-out contract: running a suite
// as n shards and merging the records produces a Result that serializes
// byte-identically to the unsharded run, for several n.
func TestShardMergeByteIdentical(t *testing.T) {
	suite := testSuite()
	whole, wholeRecs := collectRecords(t, suite, Shard{}, nil)
	wholeJSON, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	if len(wholeRecs) != suite.NumScenarios() {
		t.Fatalf("whole run emitted %d records, want %d", len(wholeRecs), suite.NumScenarios())
	}
	for _, n := range []int{2, 3} {
		records := make(map[int]RunRecord)
		for i := 0; i < n; i++ {
			shard := Shard{Index: i, Count: n}
			res, recs := collectRecords(t, suite, shard, nil)
			if res.Scenarios != len(shard.Indices(suite.NumScenarios())) {
				t.Fatalf("shard %s ran %d scenarios", shard, res.Scenarios)
			}
			// Records arrive in index order (the checkpoint-prefix property).
			for j := 1; j < len(recs); j++ {
				if recs[j].Index <= recs[j-1].Index {
					t.Fatalf("shard %s records out of order at %d", shard, j)
				}
			}
			for _, r := range recs {
				if !shard.Contains(r.Index) {
					t.Fatalf("shard %s emitted out-of-shard record %d", shard, r.Index)
				}
				records[r.Index] = r
			}
		}
		merged, err := MergeRecords(suite, tableOf(records))
		if err != nil {
			t.Fatal(err)
		}
		mergedJSON, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if string(mergedJSON) != string(wholeJSON) {
			t.Errorf("n=%d: merged result differs from unsharded run:\n%s\n%s",
				n, mergedJSON, wholeJSON)
		}
	}
}

// TestMergeRecordsValidation: incomplete or inconsistent record sets are
// rejected rather than silently producing a partial aggregate — and a record
// whose cell is not the one its index expands to is refused the same way
// by -resume (Run) and the coordinator's resume, never folded into the
// index's cell.
func TestMergeRecordsValidation(t *testing.T) {
	suite := testSuite()
	_, recs := collectRecords(t, suite, Shard{}, nil)
	records := make(map[int]RunRecord, len(recs))
	for _, r := range recs {
		records[r.Index] = r
	}

	missing := make(map[int]RunRecord)
	for k, v := range records {
		missing[k] = v
	}
	delete(missing, 3)
	if _, err := MergeRecords(suite, tableOf(missing)); err == nil {
		t.Error("missing scenario should fail merge")
	}

	wrongCell := make(map[int]RunRecord)
	for k, v := range records {
		wrongCell[k] = v
	}
	r := wrongCell[0]
	r.Cell++
	wrongCell[0] = r
	if _, err := MergeRecords(suite, tableOf(wrongCell)); !errors.Is(err, ErrBadSuite) {
		t.Errorf("inconsistent cell: merge err = %v, want ErrBadSuite", err)
	}
	if _, err := Run(context.Background(), suite, Config{Completed: tableOf(map[int]RunRecord{0: r})}); !errors.Is(err, ErrBadSuite) {
		t.Errorf("inconsistent cell: resume err = %v, want ErrBadSuite", err)
	}
	if _, err := Coordinate(context.Background(), suite, CoordinatorConfig{
		Endpoint:  &stubEndpoint{},
		Completed: tableOf(map[int]RunRecord{0: r}),
	}); !errors.Is(err, ErrBadSuite) {
		t.Errorf("inconsistent cell: coordinator resume err = %v, want ErrBadSuite", err)
	}
}

// TestResumeByteIdentical is the crash-recovery contract: a run killed
// after completing a prefix of its scenarios, restarted with those records
// as Completed, produces byte-identical output while re-executing only the
// remainder.
func TestResumeByteIdentical(t *testing.T) {
	suite := testSuite()
	whole, recs := collectRecords(t, suite, Shard{}, nil)
	wholeJSON, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	completed := make(map[int]RunRecord)
	for _, r := range recs[:len(recs)/2] {
		completed[r.Index] = r
	}
	resumed, fresh := collectRecords(t, suite, Shard{}, tableOf(completed))
	resumedJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedJSON) != string(wholeJSON) {
		t.Errorf("resumed result differs from uninterrupted run:\n%s\n%s", resumedJSON, wholeJSON)
	}
	if want := len(recs) - len(completed); len(fresh) != want {
		t.Errorf("resume re-executed %d scenarios, want %d", len(fresh), want)
	}
	for _, r := range fresh {
		if _, done := completed[r.Index]; done {
			t.Errorf("resume re-executed completed scenario %d", r.Index)
		}
	}

	// Completed records outside the shard are a configuration error.
	if _, err := Run(context.Background(), suite, Config{
		Shard:     Shard{Index: 0, Count: 2},
		Completed: tableOf(map[int]RunRecord{1: {Index: 1}}),
	}); err == nil {
		t.Error("out-of-shard completed record should fail")
	}
}

// TestCheckpointFileRoundTrip drives the durable path end to end: run a
// shard with a CheckpointWriter, read the file back, and check it replays
// into the same records; then corrupt the tail and confirm the reader
// degrades to the intact prefix.
func TestCheckpointFileRoundTrip(t *testing.T) {
	suite := testSuite()
	shard := Shard{Index: 1, Count: 2}
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.jsonl")

	w, err := CreateCheckpoint(path, suite, shard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), suite, Config{
		Workers:  4,
		Shard:    shard,
		Cache:    NewStrategyCache(),
		OnRecord: w.Append,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Shard != shard {
		t.Errorf("checkpoint shard %v, want %v", ck.Shard, shard)
	}
	if ck.Suite.Fingerprint() != suite.Fingerprint() {
		t.Error("checkpoint suite fingerprint mismatch")
	}
	if ck.Records.Len() != res.Scenarios {
		t.Fatalf("checkpoint has %d records, run folded %d", ck.Records.Len(), res.Scenarios)
	}

	// Resuming from a complete checkpoint executes nothing new and still
	// reproduces the shard result exactly.
	resumed, fresh := collectRecords(t, suite, shard, ck.Records)
	if len(fresh) != 0 {
		t.Errorf("complete checkpoint re-executed %d scenarios", len(fresh))
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Error("checkpoint replay differs from original shard run")
	}

	// A torn final line (killed mid-write) must not poison the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), data...)
	torn = append(torn, []byte(`{"index":999,"cell":`)...) // no newline: torn write
	tornPath := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := ReadCheckpoint(tornPath)
	if err != nil {
		t.Fatalf("torn checkpoint should load: %v", err)
	}
	if ck2.Records.Len() != ck.Records.Len() {
		t.Errorf("torn checkpoint has %d records, want %d", ck2.Records.Len(), ck.Records.Len())
	}

	// Appending after a torn tail must truncate the fragment first; the
	// file must stay readable and gain exactly the appended record.
	aw, err := AppendCheckpoint(tornPath, ck2)
	if err != nil {
		t.Fatal(err)
	}
	extra := RunRecord{Index: 999, Cell: 999 / suite.withDefaults().SeedsPerCell}
	if err := aw.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	// 999 is outside this test suite's grid, so read it back leniently:
	// the file must parse line by line with no glued fragment.
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if want := 1 + ck.Records.Len() + 1; len(gotLines) != want {
		t.Fatalf("appended torn file has %d lines, want %d", len(gotLines), want)
	}
	var last RunRecord
	if err := json.Unmarshal([]byte(gotLines[len(gotLines)-1]), &last); err != nil {
		t.Fatalf("appended record corrupted by torn tail: %v", err)
	}
	if last.Index != extra.Index {
		t.Errorf("appended record index %d, want %d", last.Index, extra.Index)
	}

	// A kill can also land exactly between a record's closing brace and
	// its newline: the last line is complete JSON but not durable. It must
	// count as torn, and the resume must not glue the next record onto it.
	noNL := []byte(strings.TrimRight(string(data), "\n"))
	noNLPath := filepath.Join(dir, "no-newline.jsonl")
	if err := os.WriteFile(noNLPath, noNL, 0o644); err != nil {
		t.Fatal(err)
	}
	ck3, err := ReadCheckpoint(noNLPath)
	if err != nil {
		t.Fatalf("newline-less checkpoint should load: %v", err)
	}
	if ck3.Records.Len() != ck.Records.Len()-1 {
		t.Errorf("newline-less checkpoint has %d records, want %d (tail not durable)",
			ck3.Records.Len(), ck.Records.Len()-1)
	}
	var dropped RunRecord
	for rec := range ck.Records.records() {
		if _, ok := ck3.Records.get(rec.Index); !ok {
			dropped = *rec
		}
	}
	aw2, err := AppendCheckpoint(noNLPath, ck3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw2.Append(dropped); err != nil {
		t.Fatal(err)
	}
	if err := aw2.Close(); err != nil {
		t.Fatal(err)
	}
	ck4, err := ReadCheckpoint(noNLPath)
	if err != nil {
		t.Fatalf("checkpoint unreadable after torn-tail append: %v", err)
	}
	if ck4.Records.Len() != ck3.Records.Len()+1 {
		t.Errorf("after append: %d records, want %d", ck4.Records.Len(), ck3.Records.Len()+1)
	}

	// Corruption before the tail is detected, skipped and counted — not a
	// fatal load error (that would strand every good record in the file)
	// and not silent acceptance (the skipped scenario is re-run on resume).
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 3 {
		// An unparseable line: the classic glued torn write.
		bad := append([]string(nil), lines...)
		bad[2] = "garbage"
		badBytes := []byte(strings.Join(bad, "\n") + "\n")
		badPath := filepath.Join(dir, "bad.jsonl")
		if err := os.WriteFile(badPath, badBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		ck5, err := ReadCheckpoint(badPath)
		if err != nil {
			t.Fatalf("mid-file corruption should skip, not fail: %v", err)
		}
		if ck5.Corrupted != 1 {
			t.Errorf("Corrupted = %d, want 1", ck5.Corrupted)
		}
		if ck5.Records.Len() != ck.Records.Len()-1 {
			t.Errorf("corrupt checkpoint kept %d records, want %d (one skipped)",
				ck5.Records.Len(), ck.Records.Len()-1)
		}

		// A flipped byte that still parses as JSON — wrong value, intact
		// syntax — is exactly what the per-record CRC exists to catch.
		// Flip a digit of the record's cell field: 0x02 keeps most digits
		// digits ('0'→'2', '1'→'3'), so the line stays parseable with a
		// wrong value.
		flip := append([]string(nil), lines...)
		flipped := []byte(flip[2])
		at := strings.Index(flip[2], `"cell":`) + len(`"cell":`)
		flipped[at] ^= 0x02
		flip[2] = string(flipped)
		flipPath := filepath.Join(dir, "flip.jsonl")
		if err := os.WriteFile(flipPath, []byte(strings.Join(flip, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ck6, err := ReadCheckpoint(flipPath)
		if err != nil {
			t.Fatalf("bit-rot checkpoint should load: %v", err)
		}
		if ck6.Corrupted != 1 {
			t.Errorf("bit rot: Corrupted = %d, want 1", ck6.Corrupted)
		}
		if ck6.Records.Len() != ck.Records.Len()-1 {
			t.Errorf("bit rot kept %d records, want %d", ck6.Records.Len(), ck.Records.Len()-1)
		}
	}

	// Lines without a crc member — files written before lines carried one
	// — are no record's spelling: every line counts as Corrupted, a resume
	// re-runs every scenario, and a merge is refused naming one missing.
	legacy := append([]string(nil), lines...)
	for i := 1; i < len(legacy); i++ {
		var rec RunRecord
		if err := json.Unmarshal([]byte(legacy[i]), &rec); err != nil {
			t.Fatal(err)
		}
		stripped, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		legacy[i] = string(stripped)
	}
	legacyPath := filepath.Join(dir, "legacy.jsonl")
	if err := os.WriteFile(legacyPath, []byte(strings.Join(legacy, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck7, err := ReadCheckpoint(legacyPath)
	if err != nil {
		t.Fatalf("a checkpoint of crc-less lines should load: %v", err)
	}
	if ck7.Records.Len() != 0 || ck7.Corrupted != len(legacy)-1 {
		t.Errorf("crc-less checkpoint: %d records (want 0), Corrupted %d (want %d)",
			ck7.Records.Len(), ck7.Corrupted, len(legacy)-1)
	}
	redone, fresh := collectRecords(t, suite, shard, ck7.Records)
	if len(fresh) != res.Scenarios {
		t.Errorf("resume of the crc-less checkpoint re-ran %d scenarios, want all %d", len(fresh), res.Scenarios)
	}
	if a, b := mustMarshal(t, res), mustMarshal(t, redone); !bytes.Equal(a, b) {
		t.Error("resume of the crc-less checkpoint differs from the original shard run")
	}
	other := filepath.Join(dir, "shard0.jsonl")
	w0, err := CreateCheckpoint(other, suite, Shard{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), suite, Config{Shard: Shard{Index: 0, Count: 2}, OnRecord: w0.Append}); err != nil {
		t.Fatal(err)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	mergedSuite, merged, err := ReadShardSet([]string{other, legacyPath})
	if err != nil {
		t.Fatal(err)
	}
	first := shard.Indices(suite.NumScenarios())[0]
	if _, err := MergeRecords(mergedSuite, merged); !errors.Is(err, ErrBadSuite) ||
		!strings.Contains(err.Error(), fmt.Sprintf("missing scenario %d", first)) {
		t.Errorf("merge with the crc-less shard: err = %v, want it to name missing scenario %d", err, first)
	}

	// ReadShardSet cross-validation: duplicate coverage is rejected.
	if _, _, err := ReadShardSet([]string{path, path}); err == nil {
		t.Error("duplicate shard files should fail")
	}
	if _, _, err := ReadShardSet(nil); err == nil {
		t.Error("empty shard set should fail")
	}
}

// TestShardFilesMergeEndToEnd is the CLI -merge path at the library level:
// two checkpoint files written by shard runs merge into the unsharded
// result byte-for-byte.
func TestShardFilesMergeEndToEnd(t *testing.T) {
	suite := testSuite()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")}
	for i, path := range paths {
		shard := Shard{Index: i, Count: 2}
		w, err := CreateCheckpoint(path, suite, shard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), suite, Config{
			Workers:  4,
			Shard:    shard,
			Cache:    NewStrategyCache(),
			OnRecord: w.Append,
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mergedSuite, records, err := ReadShardSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeRecords(mergedSuite, records)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := collectRecords(t, suite, Shard{}, nil)
	a, _ := json.Marshal(merged)
	b, _ := json.Marshal(whole)
	if string(a) != string(b) {
		t.Errorf("merged shard files differ from unsharded run:\n%s\n%s", a, b)
	}
}

// writeShardFiles runs suite once and writes its records as n shard files,
// gzip-framed at odd shard indexes.
func writeShardFiles(t *testing.T, dir string, suite Suite, n int) []string {
	t.Helper()
	_, recs := collectRecords(t, suite, Shard{}, nil)
	paths := make([]string, n)
	for i := range paths {
		shard := Shard{Index: i, Count: n}
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		if i%2 == 1 {
			paths[i] += ".gz"
		}
		w, err := CreateCheckpoint(paths[i], suite, shard)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if shard.Contains(rec.Index) {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestReadShardSetMatchesSequentialRead: more shard files than GOMAXPROCS,
// plain and gzip mixed, read back as the file-by-file read combines them,
// in either argument order.
func TestReadShardSetMatchesSequentialRead(t *testing.T) {
	suite := testSuite()
	suite.SeedsPerCell = 4
	paths := writeShardFiles(t, t.TempDir(), suite, max(6, runtime.GOMAXPROCS(0)+2))
	want := map[int]RunRecord{}
	for _, path := range paths {
		ck, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		for rec := range ck.Records.records() {
			want[rec.Index] = *rec
		}
	}
	if len(want) != suite.NumScenarios() {
		t.Fatalf("shard files hold %d records, the suite has %d scenarios", len(want), suite.NumScenarios())
	}
	reversed := slices.Clone(paths)
	slices.Reverse(reversed)
	for _, order := range [][]string{paths, reversed} {
		got, records, err := ReadShardSet(order)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != suite.Fingerprint() {
			t.Errorf("suite fingerprint %s, want %s", got.Fingerprint(), suite.Fingerprint())
		}
		if records.Len() != len(want) {
			t.Fatalf("%d records, want %d", records.Len(), len(want))
		}
		for idx, rec := range want {
			if g, ok := records.get(idx); !ok || !sameRecord(*g, rec) {
				t.Fatalf("record %d: %+v (present %v), want %+v", idx, g, ok, rec)
			}
		}
	}
}

// TestReadShardSetErrorOrder: whichever read finishes first, the error is
// that of the first failing file in argument order, with the message a
// file-by-file read gives.
func TestReadShardSetErrorOrder(t *testing.T) {
	dir := t.TempDir()
	suite := testSuite()
	suite.SeedsPerCell = 200 // files that take a while to read, so reads finish out of argument order
	paths := writeShardFiles(t, dir, suite, 2)
	other := suite
	other.Seed++
	foreign := writeShardFiles(t, t.TempDir(), other, 2)[1]
	missing := filepath.Join(dir, "missing.jsonl")
	_, missingErr := ReadCheckpoint(missing)
	if missingErr == nil {
		t.Fatal("reading a missing file succeeded")
	}
	fingerprintErr := fmt.Sprintf("%v: %s was produced by a different suite (fingerprint %s, want %s)",
		ErrBadSuite, foreign, other.Fingerprint(), suite.Fingerprint())
	for _, tc := range []struct {
		paths []string
		want  string
	}{
		{[]string{paths[0], foreign, missing}, fingerprintErr},
		{[]string{paths[0], missing, foreign}, missingErr.Error()},
		{[]string{paths[0], paths[1], paths[0], missing}, "appears in more than one shard file (" + paths[0] + ")"},
		{[]string{missing, paths[0], paths[1], paths[0], paths[1]}, missingErr.Error()},
	} {
		_, _, err := ReadShardSet(tc.paths)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadShardSet(%v) error %v, want %q", tc.paths, err, tc.want)
		}
		if !errors.Is(err, ErrBadSuite) && !errors.Is(err, os.ErrNotExist) {
			t.Errorf("ReadShardSet(%v) error %v wraps neither ErrBadSuite nor the missing file", tc.paths, err)
		}
	}
}

// TestReadShardSetWaitsForStartedReads: a read ReadShardSet started is
// finished before it returns, even when an earlier file's error decides
// the result. The second file is a FIFO, whose read cannot finish until a
// writer opens it and closes it again.
func TestReadShardSetWaitsForStartedReads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // both reads in flight at once
	dir := t.TempDir()
	fifo := filepath.Join(dir, "held.jsonl")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("cannot make a FIFO: %v", err)
	}
	missing := filepath.Join(dir, "missing.jsonl")
	_, missingErr := ReadCheckpoint(missing)
	if missingErr == nil {
		t.Fatal("reading a missing file succeeded")
	}
	returned := make(chan error, 1)
	go func() {
		_, _, err := ReadShardSet([]string{missing, fifo})
		returned <- err
	}()
	select {
	case err := <-returned:
		t.Fatalf("ReadShardSet returned (%v) while the read of %s was held", err, fifo)
	case <-time.After(200 * time.Millisecond):
	}
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := <-returned; err == nil || err.Error() != missingErr.Error() {
		t.Errorf("ReadShardSet error %v, want the missing file's %v", err, missingErr)
	}
}
