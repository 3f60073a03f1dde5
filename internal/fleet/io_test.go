package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tolerance/internal/telemetry"
)

// budgetRecords is a suite of several flush points' worth of scenarios and
// its records in fold order.
func budgetRecords(t *testing.T) (Suite, []RunRecord) {
	t.Helper()
	suite := testSuite()
	suite.SeedsPerCell = 12
	_, recs := collectRecords(t, suite, Shard{}, nil)
	return suite, recs
}

// holdSync puts the writer inside its power-cut window for the next hour:
// no flush point is due an fsync, however slowly the test runs.
func holdSync(w *CheckpointWriter) { w.lastSync = time.Now().Add(time.Hour) }

// dueSync backdates the last fsync by the whole window: the next flush
// point fsyncs.
func dueSync(w *CheckpointWriter) { w.lastSync = time.Now().Add(-checkpointSyncAfter) }

// countSyncs instruments w on a collector of its own and returns a reader
// of the fsyncs it has counted since (fleet.checkpoint_syncs).
func countSyncs(w *CheckpointWriter) func() int64 {
	col := telemetry.New()
	w.Instrument(col)
	return func() int64 { return col.Snapshot().Counter(MetricCheckpointSyncs) }
}

// gzipReference is the gzip stream a checkpoint writer makes of a payload
// of lines: a flush point after the header line, after every flushEvery-th
// record line when flushEvery > 0 and after the last, then, if closed, the
// stream trailer.
func gzipReference(payload []byte, flushEvery int, closed bool) []byte {
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	header, body, _ := bytes.Cut(payload, newline)
	zw.Write(append(header, '\n'))
	zw.Flush()
	for n := 1; len(body) > 0; n++ {
		line, rest, _ := bytes.Cut(body, newline)
		zw.Write(append(line, '\n'))
		if body = rest; flushEvery > 0 && n%flushEvery == 0 {
			zw.Flush()
		}
	}
	zw.Flush()
	if closed {
		zw.Close()
	}
	return out.Bytes()
}

// TestCheckpointKillKeepsFlushedPrefix: a writer abandoned without Close,
// as a kill leaves it, has handed the OS every record up to its last
// flush point and nothing after it, with or without an fsync since. The
// file reads back as exactly those records, none counted corrupt.
func TestCheckpointKillKeepsFlushedPrefix(t *testing.T) {
	suite, recs := budgetRecords(t)
	const flushes, tail = 3, 5
	flushed := recs[:flushes*checkpointFlushEvery]
	written := recs[:len(flushed)+tail]
	// The tail must fit the writer's buffer, or it would reach the file
	// without a flush point.
	tailBytes := 0
	for _, rec := range written[len(flushed):] {
		tailBytes += len(checkpointLineOf(t, rec)) + 1
	}
	if tailBytes >= bufio.NewWriter(nil).Size() {
		t.Fatalf("tail of %d records is %d bytes, more than the writer buffers", tail, tailBytes)
	}
	for _, name := range []string{"killed.jsonl", "killed.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		w, err := CreateCheckpoint(path, suite, Shard{})
		if err != nil {
			t.Fatal(err)
		}
		syncs := countSyncs(w)
		holdSync(w)
		for _, rec := range written {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if n := syncs(); n != 0 {
			t.Errorf("%s: %d fsyncs after the header's, want 0", name, n)
		}
		if err := w.f.Close(); err != nil {
			t.Fatal(err)
		}
		ck, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ck.Corrupted != 0 {
			t.Errorf("%s: %d corrupted lines, want 0", name, ck.Corrupted)
		}
		if ck.Records.Len() != len(flushed) {
			t.Errorf("%s: %d records read back, want the %d flushed", name, ck.Records.Len(), len(flushed))
		}
		for _, rec := range flushed {
			if got, ok := ck.Records.get(rec.Index); !ok || *got != rec {
				t.Errorf("%s: scenario %d = %+v, %v; want %+v", name, rec.Index, got, ok, rec)
				break
			}
		}
	}
}

// TestCheckpointSyncBudget: a flush point fsyncs only once the power-cut
// window has passed since the last fsync, a record between flush points
// never does, and Close fsyncs exactly once, gzip trailer included.
func TestCheckpointSyncBudget(t *testing.T) {
	suite, recs := budgetRecords(t)
	for _, name := range []string{"ck.jsonl", "ck.jsonl.gz"} {
		w, err := CreateCheckpoint(filepath.Join(t.TempDir(), name), suite, Shard{})
		if err != nil {
			t.Fatal(err)
		}
		syncs := countSyncs(w)
		var want int64 // after the header's
		next := 0
		appendN := func(n int) {
			t.Helper()
			for _, rec := range recs[next : next+n] {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			next += n
			if got := syncs(); got != want {
				t.Errorf("%s: after %d records, %d fsyncs, want %d", name, next, got, want)
			}
		}
		holdSync(w)
		appendN(2 * checkpointFlushEvery) // two flush points inside the window
		dueSync(w)
		appendN(checkpointFlushEvery - 1) // due, but no flush point
		want++
		appendN(1) // the flush point fsyncs
		if time.Since(w.lastSync) >= checkpointSyncAfter {
			t.Errorf("%s: the fsync did not restart the window", name)
		}
		holdSync(w)
		appendN(checkpointFlushEvery + 3)
		dueSync(w)
		want++
		appendN(checkpointFlushEvery - 3) // ends on the next flush point
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if want++; syncs() != want {
			t.Errorf("%s: Close brought fsyncs to %d, want %d", name, syncs(), want)
		}
	}
}

// TestCheckpointBytesIndependentOfSyncTiming: the flush points depend on
// the record count alone, so a writer that fsyncs at every flush point and
// one that never does write byte-identical files, plain and gzip. Both are
// also the files the flush points alone define: the header and record
// lines, gzip-flushed after the header, after every checkpointFlushEvery
// records and before the trailer.
func TestCheckpointBytesIndependentOfSyncTiming(t *testing.T) {
	suite, recs := budgetRecords(t)
	recs = recs[:3*checkpointFlushEvery+7]
	var payload []byte // the plain file, built line by line
	for _, name := range []string{"ck.jsonl", "ck.jsonl.gz"} {
		var files [2][]byte
		wantSyncs := [2]int64{3 + 1, 1} // Close's, plus every flush point
		for i, before := range []func(*CheckpointWriter){dueSync, holdSync} {
			path := filepath.Join(t.TempDir(), name)
			w, err := CreateCheckpoint(path, suite, Shard{})
			if err != nil {
				t.Fatal(err)
			}
			syncs := countSyncs(w)
			for _, rec := range recs {
				before(w)
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := syncs(); got != wantSyncs[i] {
				t.Errorf("%s: %d fsyncs after the header's, want %d", name, got, wantSyncs[i])
			}
			files[i] = mustReadFile(t, path)
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: always-fsync file (%d bytes) differs from never-fsync file (%d bytes)",
				name, len(files[0]), len(files[1]))
		}
		var want []byte
		if payload == nil {
			header, _, _ := bytes.Cut(files[0], newline)
			want = append(header, '\n')
			for _, rec := range recs {
				want = append(append(want, checkpointLineOf(t, rec)...), '\n')
			}
			payload = want
		} else {
			want = gzipReference(payload, checkpointFlushEvery, true)
		}
		if !bytes.Equal(files[0], want) {
			t.Errorf("%s: file (%d bytes) differs from its flush points' reference (%d bytes)",
				name, len(files[0]), len(want))
		}
	}
}

// TestResumeRewritesDamagedPlainCheckpoint: resuming a plain checkpoint
// with damaged lines rewrites it without them, so a later read finds no
// damage to skip and report again, and a stale temp file a kill left
// before the rename is overwritten. A clean plain file, intact or with a
// torn final line, is rewritten to its intact records' own bytes, so its
// resume ends in the bytes an uninterrupted run writes.
func TestResumeRewritesDamagedPlainCheckpoint(t *testing.T) {
	suite, recs := budgetRecords(t)
	dir := t.TempDir()
	write := func(name string, recs []RunRecord) (string, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		w, err := CreateCheckpoint(path, suite, Shard{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path, mustReadFile(t, path)
	}
	_, uninterrupted := write("uninterrupted.jsonl", recs)
	kept := recs[:len(recs)/2]
	clean, original := write("clean.jsonl", kept)
	torn := filepath.Join(dir, "torn.jsonl")
	tornLine := checkpointLineOf(t, recs[len(kept)])
	if err := os.WriteFile(torn, append(bytes.Clone(original), tornLine[:len(tornLine)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	// resume reads path, appends every record it lacks and reads it again.
	resume := func(path string) (before, after *Checkpoint) {
		t.Helper()
		before = checkReadCheckpoint(t, path)
		aw, err := AppendCheckpoint(path, before)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, ok := before.Records.get(rec.Index); ok {
				continue
			}
			if err := aw.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		return before, checkReadCheckpoint(t, path)
	}

	for _, path := range []string{clean, torn} {
		if _, after := resume(path); after.Records.Len() != len(recs) || after.Corrupted != 0 {
			t.Errorf("%s: resume left %d records, %d corrupted; want %d, 0", filepath.Base(path), after.Records.Len(), after.Corrupted, len(recs))
		}
		if resumed := mustReadFile(t, path); !bytes.Equal(resumed, uninterrupted) {
			t.Errorf("%s: resumed file (%d bytes) differs from an uninterrupted run's (%d bytes)",
				filepath.Base(path), len(resumed), len(uninterrupted))
		}
	}

	// Damage four record lines (line 0 is the header) by changing the last
	// digit of their crc, and leave a stale half-written rewrite beside them.
	damaged := filepath.Join(dir, "damaged.jsonl")
	lines := bytes.SplitAfter(bytes.Clone(original), newline)
	for _, i := range []int{1, 4, 7, 10} {
		d := len(lines[i]) - len("0}\n")
		if lines[i][d] == '0' {
			lines[i][d] = '1'
		} else {
			lines[i][d] = '0'
		}
	}
	if err := os.WriteFile(damaged, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := damaged + ".rewrite"
	if err := os.WriteFile(stale, original[:len(original)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	before, after := resume(damaged)
	if before.Corrupted != 4 || before.Records.Len() != len(kept)-4 {
		t.Fatalf("damaged file read %d records, %d corrupted; want %d, 4", before.Records.Len(), before.Corrupted, len(kept)-4)
	}
	if after.Records.Len() != len(recs) || after.Corrupted != 0 {
		t.Errorf("damaged resume: %d records, %d corrupted; want %d, 0", after.Records.Len(), after.Corrupted, len(recs))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("temp file still present after the rename: %v", err)
	}
}
