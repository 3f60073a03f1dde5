package fleet

import (
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"
)

// runWithCheckpoint executes the suite writing every record to path and
// returns the serialized result.
func runWithCheckpoint(t *testing.T, suite Suite, path string, completed *RecordTable) []byte {
	t.Helper()
	var w *CheckpointWriter
	var err error
	if completed != nil {
		ck, rerr := ReadCheckpoint(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		w, err = AppendCheckpoint(path, ck)
	} else {
		w, err = CreateCheckpoint(path, suite, Shard{})
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), suite, Config{
		Workers:   2,
		Cache:     NewStrategyCache(),
		Completed: completed,
		OnRecord:  w.Append,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGzipCheckpointRoundTrip writes a full run through a .gz checkpoint
// and checks the compressed file reads back into exactly the records a
// plain checkpoint of the same run holds.
func TestGzipCheckpointRoundTrip(t *testing.T) {
	suite := testSuite()
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "run.jsonl")
	gzPath := filepath.Join(dir, "run.jsonl.gz")

	plainJSON := runWithCheckpoint(t, suite, plainPath, nil)
	gzJSON := runWithCheckpoint(t, suite, gzPath, nil)
	if string(plainJSON) != string(gzJSON) {
		t.Error("gzip-checkpointed run result differs from plain run")
	}

	plain, err := ReadCheckpoint(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := ReadCheckpoint(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if !gz.gz || plain.gz {
		t.Errorf("gz flags: plain %v, gzip %v", plain.gz, gz.gz)
	}
	if gz.Suite.Fingerprint() != plain.Suite.Fingerprint() {
		t.Error("suite fingerprint differs between plain and gzip checkpoints")
	}
	if gz.Records.Len() != plain.Records.Len() {
		t.Fatalf("gzip checkpoint has %d records, plain %d", gz.Records.Len(), plain.Records.Len())
	}
	for rec := range plain.Records.records() {
		if g, ok := gz.Records.get(rec.Index); !ok || *g != *rec {
			t.Errorf("record %d differs between plain and gzip checkpoints", rec.Index)
		}
	}

	// MergeRecords accepts the gzip file's records like any other shard
	// set (the -merge path reads through the same ReadCheckpoint).
	suiteFromFile, combined, err := ReadShardSet([]string{gzPath})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeRecords(suiteFromFile, combined)
	if err != nil {
		t.Fatal(err)
	}
	mergedJSON, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(mergedJSON) != string(plainJSON) {
		t.Error("merge of the gzip checkpoint differs from the direct run")
	}
}

// TestGzipCheckpointKilledRunResumes simulates a kill mid-write: the gzip
// stream never gets its trailer, yet the synced prefix reads back and a
// resume completes with output byte-identical to an uninterrupted run.
func TestGzipCheckpointKilledRunResumes(t *testing.T) {
	suite := testSuite()
	dir := t.TempDir()
	path := filepath.Join(dir, "killed.jsonl.gz")

	whole, recs := collectRecords(t, suite, Shard{}, nil)
	wholeJSON, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}

	// Write half the records, force a compressed-block flush, then abandon
	// the writer without Close — no gzip trailer, like a SIGKILL.
	w, err := CreateCheckpoint(path, suite, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	half := recs[:len(recs)/2]
	for _, rec := range half {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("killed gzip checkpoint unreadable: %v", err)
	}
	if ck.Records.Len() != len(half) {
		t.Fatalf("recovered %d records from killed gzip checkpoint, want %d", ck.Records.Len(), len(half))
	}

	resumedJSON := runWithCheckpoint(t, suite, path, ck.Records)
	if string(resumedJSON) != string(wholeJSON) {
		t.Error("gzip resume differs from uninterrupted run")
	}

	// The rewritten file now holds every record and a proper trailer.
	final, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Records.Len() != len(recs) {
		t.Errorf("resumed gzip checkpoint has %d records, want %d", final.Records.Len(), len(recs))
	}
}

// TestConfigDefaultWorkersUncapped documents the lifted cap: the default
// worker count is GOMAXPROCS (no ceiling of 8), and explicit values pass
// through untouched however large.
func TestConfigDefaultWorkersUncapped(t *testing.T) {
	if got := (Config{}).withDefaults().Workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Config{Workers: 64}).withDefaults().Workers; got != 64 {
		t.Errorf("explicit workers = %d, want 64 (never capped)", got)
	}
	if got := (Config{Workers: 1}).withDefaults().Workers; got != 1 {
		t.Errorf("explicit workers = %d, want 1", got)
	}
}
