package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"path/filepath"
	"testing"
	"time"
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
		holdSync(w)
		for _, rec := range written {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if w.syncCalls != 1 {
			t.Errorf("%s: %d fsyncs, want 1 (the header's)", name, w.syncCalls)
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
		want := 1 // the header's
		next := 0
		appendN := func(n int) {
			t.Helper()
			for _, rec := range recs[next : next+n] {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			next += n
			if w.syncCalls != want {
				t.Errorf("%s: after %d records, %d fsyncs, want %d", name, next, w.syncCalls, want)
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
		if want++; w.syncCalls != want {
			t.Errorf("%s: Close brought fsyncs to %d, want %d", name, w.syncCalls, want)
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
		wantSyncs := [2]int{3 + 2, 2} // header and Close, plus every flush point
		for i, before := range []func(*CheckpointWriter){dueSync, holdSync} {
			path := filepath.Join(t.TempDir(), name)
			w, err := CreateCheckpoint(path, suite, Shard{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				before(w)
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.syncCalls != wantSyncs[i] {
				t.Errorf("%s: %d fsyncs, want %d", name, w.syncCalls, wantSyncs[i])
			}
			files[i] = mustReadFile(t, path)
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: always-fsync file (%d bytes) differs from never-fsync file (%d bytes)",
				name, len(files[0]), len(files[1]))
		}
		var want bytes.Buffer
		if payload == nil {
			header, _, _ := bytes.Cut(files[0], newline)
			want.Write(header)
			want.WriteByte('\n')
			for _, rec := range recs {
				want.Write(checkpointLineOf(t, rec))
				want.WriteByte('\n')
			}
			payload = want.Bytes()
		} else {
			zw := gzip.NewWriter(&want)
			header, body, _ := bytes.Cut(payload, newline)
			zw.Write(append(header, '\n'))
			zw.Flush()
			for n := 1; len(body) > 0; n++ {
				line, rest, _ := bytes.Cut(body, newline)
				zw.Write(append(line, '\n'))
				if body = rest; n%checkpointFlushEvery == 0 {
					zw.Flush()
				}
			}
			zw.Flush()
			zw.Close()
		}
		if !bytes.Equal(files[0], want.Bytes()) {
			t.Errorf("%s: file (%d bytes) differs from its flush points' reference (%d bytes)",
				name, len(files[0]), want.Len())
		}
	}
}
