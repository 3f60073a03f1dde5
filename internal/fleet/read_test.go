package fleet

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// wideTestSuite is testSuite with seedsPerCell seeds per cell.
func wideTestSuite(seedsPerCell int) Suite {
	suite := testSuite()
	suite.SeedsPerCell = seedsPerCell
	return suite
}

// writeSyntheticCheckpoint writes the first n records of shard to path
// through the checkpoint writer, without running a scenario: each record
// is sampleRecord's shape with values varied by index, so its line is as
// long as the wide grid's. It returns the records.
func writeSyntheticCheckpoint(t testing.TB, path string, suite Suite, shard Shard, n int) []RunRecord {
	t.Helper()
	suite = suite.withDefaults()
	w, err := CreateCheckpoint(path, suite, shard)
	if err != nil {
		t.Fatal(err)
	}
	idxs := shard.Indices(suite.NumScenarios())
	if n > len(idxs) {
		t.Fatalf("shard %s has %d scenarios, want %d records", shard, len(idxs), n)
	}
	recs := make([]RunRecord, n)
	for i, idx := range idxs[:n] {
		m := sampleRecord.Metrics
		x := float64(idx)
		m.Availability, m.TimeToRecovery, m.AvgCost = 1-x/1e6, 51.4+x/7, 0.1930835734870317+x/3e5
		m.Intrusions, m.Recoveries = idx%97, idx%53
		recs[i] = RunRecord{Index: idx, Cell: idx / suite.SeedsPerCell, Metrics: m}
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// damagedGzip is an n-record gzip checkpoint (a shard 1/2 of 2n
// scenarios) and single-byte damages a disk can do to it that the stream
// itself notices: a byte flipped at its midpoint, inside the deflate data;
// one bit flipped in the CRC32 of its trailer, the payload intact; and the
// first byte after the midpoint whose flip makes the deflate data
// undecodable.
func damagedGzip(t testing.TB, n int) (recs []RunRecord, intact, flippedMid, flippedCRC, undecodable []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wide.jsonl.gz")
	recs = writeSyntheticCheckpoint(t, path, wideTestSuite(n/4), Shard{Index: 1, Count: 2}, n)
	intact = mustReadFile(t, path)
	flip := func(at int, mask byte) []byte {
		data := bytes.Clone(intact)
		data[at] ^= mask
		return data
	}
	flippedMid = flip(len(intact)/2, 0xff)
	flippedCRC = flip(len(intact)-8, 1) // the trailer is CRC32, then the length
	for at := len(intact) / 2; at < len(intact)-8 && undecodable == nil; at++ {
		data := flip(at, 0xff)
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, zr); errors.As(err, new(flate.CorruptInputError)) {
			undecodable = data
		}
	}
	if undecodable == nil {
		t.Fatal("no byte flip after the midpoint makes the deflate data undecodable")
	}
	return recs, intact, flippedMid, flippedCRC, undecodable
}

// garbledGzip is damagedGzip's n-record file with the first bit flip that
// garbles a line into valid JSON without a crc member and with an index of
// the file's shard — a line that passes for a legacy record — with its
// records and that index.
func garbledGzip(t testing.TB, n int) (recs []RunRecord, garbled []byte, idx int) {
	t.Helper()
	recs, intact, _, _, _ := damagedGzip(t, n)
	for at := range len(intact) {
		for bit := range 8 {
			data := bytes.Clone(intact)
			data[at] ^= 1 << bit
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err != nil {
				continue
			}
			payload, _ := io.ReadAll(zr)
			lines := bytes.Split(payload, newline)
			if len(lines) < 2 {
				continue
			}
			for _, line := range lines[1 : len(lines)-1] { // the last is torn or empty
				var cl refLine
				if json.Unmarshal(line, &cl) == nil && cl.CRC == nil && cl.Index >= 0 && cl.Index < 2*n && cl.Index%2 == 1 {
					return recs, data, cl.Index
				}
			}
		}
	}
	t.Fatal("no bit flip garbles a line into a legacy record")
	return nil, nil, 0
}

// TestDamagedGzipCheckpointLoads: one damaged byte in a .gz checkpoint
// costs the records it reaches, not the file. With the deflate data
// damaged, the lines before the damage load (a flip may decompress on
// into wrong bytes, which fail their lines' CRCs, or stop decompression);
// with only the trailer's checksum damaged, every line loads, each
// vouched for by its own CRC. A line the damage garbles into one without a
// CRC is counted, not loaded as a legacy record.
func TestDamagedGzipCheckpointLoads(t *testing.T) {
	recs, _, flippedMid, flippedCRC, undecodable := damagedGzip(t, 256)
	dir := t.TempDir()

	ck := checkReadCheckpoint(t, writeCheckpointFile(t, dir, flippedCRC, true))
	if ck == nil || ck.Records.Len() != len(recs) || ck.Corrupted != 0 {
		t.Fatalf("trailer CRC flipped: %v, want all %d records and none corrupted", ck, len(recs))
	}
	for _, rec := range recs {
		if g, ok := ck.Records.get(rec.Index); !ok || !sameRecord(*g, rec) {
			t.Fatalf("trailer CRC flipped: record %d is %+v (present %v), want %+v", rec.Index, g, ok, rec)
		}
	}

	for name, data := range map[string][]byte{"midpoint flipped": flippedMid, "deflate undecodable": undecodable} {
		ck = checkReadCheckpoint(t, writeCheckpointFile(t, dir, data, true))
		if ck == nil {
			t.Fatalf("%s: the file does not load", name)
		}
		// The damage sits in the second half of the compressed stream, whose
		// flush points keep its halves about equal in records.
		if n := ck.Records.Len(); n < len(recs)/4 || n >= len(recs) {
			t.Errorf("%s: %d records load, want at least %d and fewer than %d", name, n, len(recs)/4, len(recs))
		}
		for _, rec := range recs {
			if g, ok := ck.Records.get(rec.Index); ok && !sameRecord(*g, rec) {
				t.Errorf("%s: record %d loads as %+v, want %+v", name, rec.Index, *g, rec)
			}
		}
	}

	recs, garbled, idx := garbledGzip(t, 16)
	ck = checkReadCheckpoint(t, writeCheckpointFile(t, dir, garbled, true))
	if ck == nil || ck.Corrupted == 0 {
		t.Fatalf("garbled: %v, want the file to load with the garbled line corrupted", ck)
	}
	if g, ok := ck.Records.get(idx); ok {
		t.Errorf("garbled: the line without a crc loads as record %d: %+v", idx, *g)
	}
	for _, rec := range recs {
		if g, ok := ck.Records.get(rec.Index); ok && !sameRecord(*g, rec) {
			t.Errorf("garbled: record %d loads as %+v, want %+v", rec.Index, *g, rec)
		}
	}
}

// TestReadAllocationsIndependentOfSize: ReadCheckpoint and ReadShardSet
// allocate as often for 12 288 records a file as for 1 024, plain and
// gzip. compress/flate allocates Huffman tables for each deflate block it
// decodes, and a gzip checkpoint ends a block every checkpointFlushEvery
// records, so a gzip read is held to a gunzip of the same file.
func TestReadAllocationsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	suite := wideTestSuite(2 * 12288 / 8)
	if got := suite.NumScenarios(); got != 2*12288 {
		t.Fatalf("suite has %d scenarios, want %d", got, 2*12288)
	}
	dir := t.TempDir()
	// Collections are held off while counting: what a collection empties
	// (encoding/json's sync.Pool of encoders, the runtime's caches of
	// channel waiters) is allocated again at no fixed point of a read.
	allocs := func(f func()) float64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, f)
	}
	gunzip := func(path string) float64 {
		return allocs(func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, ext := range []string{".jsonl", ".jsonl.gz"} {
		var counts [2][2]float64 // [size][ReadCheckpoint, ReadShardSet]
		for i, n := range []int{1024, 12288} {
			paths := make([]string, 2)
			for s := range paths {
				paths[s] = filepath.Join(dir, fmt.Sprintf("n%d-s%d%s", n, s, ext))
				writeSyntheticCheckpoint(t, paths[s], suite, Shard{Index: s, Count: 2}, n)
			}
			counts[i][0] = allocs(func() {
				if _, err := ReadCheckpoint(paths[0]); err != nil {
					t.Fatal(err)
				}
			})
			counts[i][1] = allocs(func() {
				if _, _, err := ReadShardSet(paths); err != nil {
					t.Fatal(err)
				}
			})
			if ext == ".jsonl.gz" {
				g0, g1 := gunzip(paths[0]), gunzip(paths[1])
				counts[i][0] -= g0
				counts[i][1] -= g0 + g1
			}
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: ReadCheckpoint, ReadShardSet allocate %v times at 1 024 records a file, %v at 12 288",
				ext, counts[0], counts[1])
		}
	}
}

// TestReadCheckpointAcrossBlocks holds the block pipeline to the reference
// reader at block sizes that put every kind of line across a boundary:
// one byte, sizes around a record line, and the default. The 256-record
// files skip the blocks of a few bytes, tens of thousands of them.
func TestReadCheckpointAcrossBlocks(t *testing.T) {
	defer func(n int) { readBlockSize = n }(readBlockSize)
	cases := damagedCheckpoints(t, 256)
	for _, size := range []int{1, 7, 64, 266, 267, 268, 511, 128 << 10} {
		readBlockSize = size
		for name, file := range cases {
			if size < 64 && len(file.data) > 4<<10 {
				continue
			}
			t.Run(fmt.Sprintf("%s/block=%d", name, size), func(t *testing.T) {
				checkReadCheckpoint(t, writeCheckpointFile(t, t.TempDir(), file.data, file.gz))
			})
		}
	}
}

// TestReadShardSetNamesFirstRepeat: three copies of one shard file read at
// once, so any of them may claim a scenario's slot first; the error always
// names the second copy, the first file that repeats a scenario.
func TestReadShardSetNamesFirstRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // all three reads in flight at once
	dir := t.TempDir()
	suite := wideTestSuite(256)
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("copy%d.jsonl", i))
		writeSyntheticCheckpoint(t, paths[i], suite, Shard{Index: 1, Count: 2}, 1024)
	}
	for range 20 {
		_, _, err := ReadShardSet(paths)
		if err == nil || !strings.Contains(err.Error(), "appears in more than one shard file ("+paths[1]+")") {
			t.Fatalf("ReadShardSet error %v, want a repeat in %s", err, paths[1])
		}
	}
}

// TestNonCanonicalLinesAreDamage: a line without a crc member, and a line
// whose keys are reordered around a crc that verifies its values, are no
// records, in a plain file and in an intact gzip one: each counts as
// Corrupted, a resume re-runs exactly their scenarios, and a merge is
// refused naming the first of them.
func TestNonCanonicalLinesAreDamage(t *testing.T) {
	suite := testSuite()
	for _, name := range []string{"s0.jsonl", "s0.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			paths := writeShardFiles(t, dir, suite, 2)
			payload, _, err := checkpointPayload(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(payload, newline) // the header, the records, ""
			var damagedIdx []int
			for i, respell := range []func(line []byte, rec RunRecord) []byte{
				func(_ []byte, rec RunRecord) []byte { return append(mustMarshal(t, rec), '\n') },
				func(line []byte, _ RunRecord) []byte {
					at := bytes.Index(line, []byte(recKeyCRC))
					return fmt.Appendf(nil, "{%s,%s}\n", line[at+1:len(line)-2], line[1:at])
				},
			} {
				line := lines[1+i]
				var rec RunRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatal(err)
				}
				lines[1+i] = respell(line, rec)
				if !json.Valid(bytes.TrimSpace(lines[1+i])) {
					t.Fatalf("respelled line %q is not JSON", lines[1+i])
				}
				damagedIdx = append(damagedIdx, rec.Index)
			}
			path := filepath.Join(dir, name)
			os.Remove(paths[0])
			writeFramed(t, path, bytes.Join(lines, nil))

			ck := checkReadCheckpoint(t, path)
			if ck == nil || ck.Corrupted != 2 {
				t.Fatalf("checkpoint: %+v, want it to load with 2 lines Corrupted", ck)
			}
			for _, idx := range damagedIdx {
				if _, ok := ck.Records.get(idx); ok {
					t.Errorf("scenario %d loads from a line that is not its record's spelling", idx)
				}
			}
			_, fresh := collectRecords(t, suite, ck.Shard, ck.Records)
			var rerun []int
			for _, rec := range fresh {
				rerun = append(rerun, rec.Index)
			}
			if slices.Sort(rerun); !slices.Equal(rerun, damagedIdx) {
				t.Errorf("resume re-ran scenarios %v, want %v", rerun, damagedIdx)
			}
			mergedSuite, records, err := ReadShardSet([]string{path, paths[1]})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := MergeRecords(mergedSuite, records); err == nil ||
				!strings.Contains(err.Error(), fmt.Sprintf("missing scenario %d", damagedIdx[0])) {
				t.Errorf("merge: err = %v, want it to name missing scenario %d", err, damagedIdx[0])
			}
		})
	}
}

// writeFramed writes payload to path, gzip-framed when the path ends in
// .gz.
func writeFramed(t *testing.T, path string, payload []byte) {
	t.Helper()
	if gzipCheckpoint(path) {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		payload = buf.Bytes()
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
}
