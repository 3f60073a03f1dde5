package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tolerance/internal/emulation"
	"tolerance/internal/telemetry"
)

// RunRecord is one completed scenario: its global index in the suite's
// expansion, the grid cell it belongs to, and the run's metrics. Records
// are the unit of durability — checkpoint files and shard result files are
// streams of them — and replaying records in index order reproduces a
// run's aggregates byte-for-byte (emulation.Metrics is flat float64/int
// data, which Go's JSON encoding round-trips exactly).
type RunRecord struct {
	Index   int               `json:"index"`
	Cell    int               `json:"cell"`
	Metrics emulation.Metrics `json:"metrics"`
}

// checkpointLine is the on-disk shape of one record line as encoding/json
// sees it: the RunRecord fields flattened plus a trailing CRC32 (IEEE) of
// the record's canonical encoding (see recordCRC). The writer and the
// reader's fast path go through the record codec instead; this type only
// decodes lines that are valid JSON in some other shape (reordered keys,
// whitespace, "crc":null), so the accepted set stays encoding/json's. Such
// a line has no canonical record bytes to checksum, so its CRC is always
// verified by re-encoding the decoded record. CRC is a pointer so legacy
// lines without one read back as nil and are accepted unverified.
type checkpointLine struct {
	RunRecord
	CRC *uint32 `json:"crc,omitempty"`
}

// checkpointHeader is the first line of a checkpoint / shard result file.
// It embeds the full defaulted suite (so -merge needs no side channel) and
// its fingerprint (so resume and merge refuse records from a different
// grid).
type checkpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Shard       string `json:"shard"`
	Scenarios   int    `json:"scenarios"`
	Suite       Suite  `json:"suite"`
}

// CheckpointVersion is the current checkpoint/shard-file format version.
const CheckpointVersion = 1

// checkpointFlushEvery is the kill budget: every this many records the
// writer hands its buffered bytes (for gzip files, a complete compressed
// block) to the OS, whose page cache outlives the process, so a killed run
// loses at most checkpointFlushEvery-1 completed scenarios. The gzip flush
// points depend on the record count alone, so the file's bytes do too.
const checkpointFlushEvery = 16

// checkpointSyncAfter is the power-cut budget: a flush point also fsyncs
// once this long has passed since the last fsync, so a power cut loses at
// most the records completed in one such window plus
// checkpointFlushEvery-1. Creating, rewriting and closing a checkpoint
// always fsync. When scenarios are slower than the window, every flush
// point fsyncs.
const checkpointSyncAfter = 50 * time.Millisecond

var newline = []byte{'\n'}

// gzipCheckpoint reports whether a checkpoint path selects the gzip
// framing: very large grids name their files *.gz and every consumer
// (-checkpoint, -resume, -merge) handles them transparently. The JSONL
// payload inside is identical to a plain file's.
func gzipCheckpoint(path string) bool { return strings.HasSuffix(path, ".gz") }

// Checkpoint is the parsed content of a checkpoint or shard result file.
type Checkpoint struct {
	// Suite is the defaulted suite the records were produced from.
	Suite Suite
	// Shard is the slice of the scenario index set the writer was assigned.
	Shard Shard
	// Records maps scenario index to its completed record.
	Records map[int]RunRecord
	// Corrupted counts record lines that were detected as damaged — a
	// parse failure before the final line, or a CRC mismatch — and skipped.
	// Their scenarios are simply missing from Records, so a resume re-runs
	// them; nothing about the rest of the file is distrusted.
	Corrupted int
	// validBytes is the extent of the intact newline-terminated prefix (of
	// the decompressed payload for gzip files); AppendCheckpoint truncates
	// plain files to it so a torn tail is never glued onto fresh records.
	validBytes int64
	// gz records that the file was gzip-framed; resume rewrites such files
	// instead of truncate-and-append.
	gz bool
}

// readCheckpointBytes loads a checkpoint file's JSONL payload. For gzip
// files it decompresses as far as the stream allows: a run killed
// mid-write leaves a truncated gzip tail, which surfaces as an unexpected
// EOF after some decompressed prefix — exactly the torn-tail shape the
// JSONL parser already tolerates (the writer's periodic Flush guarantees
// every flushed record is in a decompressible block), so a crashed gzip
// checkpoint is always loadable.
func readCheckpointBytes(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	if !gzipCheckpoint(path) {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, path, err)
	}
	// The buffer doubles as it fills. The gzip trailer's size field is no
	// guide: a file torn after a sync flush ends in the flush marker
	// 00 00 ff ff, which reads as a 4.29 GB payload.
	var out bytes.Buffer
	if _, err := out.ReadFrom(zr); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, path, err)
	}
	// Close verifies the trailer checksum, which a truncated member cannot
	// pass; the decompressed prefix is still a valid torn-tail payload.
	_ = zr.Close()
	return out.Bytes(), nil
}

// ReadCheckpoint parses a checkpoint file (gzip-framed when the path ends
// in .gz). The format is JSONL: a header line followed by one record per
// line, each carrying a CRC32 of its record (absent in legacy files, which
// still read fine). A torn final line — the signature of a run killed
// mid-write — is ignored, so a crashed run's file is always loadable.
// A damaged line anywhere else (unparseable, or parseable with a CRC
// mismatch — a flipped byte can leave valid JSON with a wrong value) is
// skipped and counted in Checkpoint.Corrupted rather than failing the
// load or silently truncating the resume prefix: the affected scenarios
// are re-run on resume, every record after them is kept.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := readCheckpointBytes(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: checkpoint %s is empty", ErrBadSuite, path)
	}
	// Lines are walked over data in place. First drop trailing blank lines
	// (the file ends with a newline when intact): end becomes the end of the
	// last non-blank line, which starts at last.
	end, last := len(data), 0
	for {
		last = bytes.LastIndexByte(data[:end], '\n') + 1
		if len(bytes.TrimSpace(data[last:end])) != 0 {
			break
		}
		if last == 0 {
			return nil, fmt.Errorf("%w: checkpoint %s is empty", ErrBadSuite, path)
		}
		end = last - 1
	}
	// A line is only durable once its newline is on disk. A file that does
	// not end in '\n' was killed mid-write: its final line is torn even if
	// the cut happened to land after complete JSON — counting it would make
	// validBytes overshoot the file and corrupt the truncate-then-append
	// resume path.
	if data[len(data)-1] != '\n' {
		if last == 0 {
			return nil, fmt.Errorf("%w: checkpoint %s has a torn header", ErrBadSuite, path)
		}
		end = last - 1
	}
	header, body, hasBody := bytes.Cut(data[:end], newline)
	nBody := 0
	if hasBody {
		nBody = bytes.Count(body, newline) + 1
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(header, &hdr); err != nil {
		return nil, fmt.Errorf("%w: checkpoint %s header: %v", ErrBadSuite, path, err)
	}
	if hdr.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: checkpoint %s version %d, want %d",
			ErrBadSuite, path, hdr.Version, CheckpointVersion)
	}
	if got := hdr.Suite.Fingerprint(); got != hdr.Fingerprint {
		return nil, fmt.Errorf("%w: checkpoint %s fingerprint %s does not match its suite (%s)",
			ErrBadSuite, path, hdr.Fingerprint, got)
	}
	shard, err := ParseShard(hdr.Shard)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, path, err)
	}
	ck := &Checkpoint{
		Suite:      hdr.Suite,
		Shard:      shard,
		Records:    make(map[int]RunRecord, nBody),
		validBytes: int64(len(header) + 1),
		gz:         gzipCheckpoint(path),
	}
	scratch := make([]byte, 0, maxRecordJSON) // the CRC fallback's re-encoding
	for i := 0; i < nBody; i++ {
		var line []byte
		line, body, _ = bytes.Cut(body, newline)
		rec, crc, crcAt, ok := decodeRecordLine(line)
		hasCRC := crcAt >= 0
		if !ok {
			// Not the writer's canonical shape: either damage, or valid JSON
			// spelled differently, which encoding/json decides as it always
			// has.
			var cl checkpointLine
			if err := json.Unmarshal(line, &cl); err != nil {
				if i == nBody-1 {
					break // torn tail from a killed run; the record is simply redone
				}
				// A torn or corrupted line mid-file (a chaos tear glues a half
				// line onto its successor). validBytes still advances: the
				// damage is already durable, and truncating it away would also
				// discard every good record that follows.
				ck.Corrupted++
				ck.validBytes += int64(len(line) + 1)
				continue
			}
			rec, hasCRC = cl.RunRecord, cl.CRC != nil
			if hasCRC {
				crc = *cl.CRC
			}
		}
		// A canonical line's crc is checked on its own record bytes. Only a
		// mismatch there, or a line encoding/json decoded, re-encodes the
		// record, so a non-canonical spelling of the right values verifies.
		if hasCRC && (crcAt < 0 || lineCRC(line, crcAt) != crc) {
			if sum, err := recordCRC(scratch, rec); err != nil || sum != crc {
				ck.Corrupted++
				ck.validBytes += int64(len(line) + 1)
				continue
			}
		}
		if rec.Index < 0 || rec.Index >= hdr.Scenarios || !shard.Contains(rec.Index) {
			return nil, fmt.Errorf("%w: checkpoint %s has out-of-shard scenario %d",
				ErrBadSuite, path, rec.Index)
		}
		ck.Records[rec.Index] = rec
		ck.validBytes += int64(len(line) + 1)
	}
	return ck, nil
}

// CheckpointWriter appends run records to a checkpoint file as they
// complete, flushing every checkpointFlushEvery records and fsyncing at
// most every checkpointSyncAfter, so a killed or powered-off run can be
// resumed with bounded rework. A path ending in .gz writes the same JSONL
// stream gzip-compressed (for very large grids); each flush ends a
// compressed block, so the flushed prefix of a killed gzip run is always
// decompressible. Each record is encoded once by the record codec into a
// reused line buffer, stamped with the CRC32 of those bytes so readers can
// detect corruption instead of trusting whatever parses, and handed to the
// output pipeline as one Write.
type CheckpointWriter struct {
	f         *os.File
	bw        *bufio.Writer
	zw        *gzip.Writer       // nil for plain files
	sink      io.Writer          // head of the (chaos)→(gzip)→buffer→file pipeline
	line      []byte             // the current line; reused across records
	unflushed int                // records since the last flush
	lastSync  time.Time          // end of the last fsync; zero before the first
	syncCalls int                // fsyncs issued, Instrumented or not
	syncs     *telemetry.Counter // set by Instrument
}

// Instrument counts the writer's fsyncs on the collector
// (fleet.checkpoint_syncs). Pure observer: the file contents and sync
// cadence are identical with or without it.
func (c *CheckpointWriter) Instrument(col *telemetry.Collector) {
	c.syncs = col.Counter(MetricCheckpointSyncs)
}

// newCheckpointWriter assembles the (gzip)→buffer→file pipeline.
func newCheckpointWriter(path string, f *os.File) *CheckpointWriter {
	w := &CheckpointWriter{f: f, bw: bufio.NewWriter(f), line: make([]byte, 0, maxRecordJSON)}
	w.sink = w.bw
	if gzipCheckpoint(path) {
		w.zw = gzip.NewWriter(w.bw)
		w.sink = w.zw
	}
	return w
}

// CreateCheckpoint creates (truncating) a checkpoint file for the suite
// and shard and writes the header.
func CreateCheckpoint(path string, suite Suite, shard Shard) (*CheckpointWriter, error) {
	suite = suite.withDefaults()
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: create checkpoint: %w", err)
	}
	w := newCheckpointWriter(path, f)
	hdr := checkpointHeader{
		Version:     CheckpointVersion,
		Fingerprint: suite.Fingerprint(),
		Shard:       shard.String(),
		Scenarios:   suite.NumScenarios(),
		Suite:       suite,
	}
	if err := w.writeHeader(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// AppendCheckpoint reopens the checkpoint file ck was read from to append
// fresh records after a resume. A plain file is truncated to ck's intact
// prefix, discarding any torn final line a kill left behind — otherwise
// the first appended record would be glued onto the fragment, corrupting
// the file for -merge and later resumes. A gzip file cannot be truncated
// to a record boundary in place, so it is rewritten from the parsed
// records (in index order — the fold order the original writer used)
// before appending continues. The replayed records are not synced in
// batches — the original stays in place until the rename, so nothing is at
// risk before the one fsync that precedes it.
func AppendCheckpoint(path string, ck *Checkpoint) (*CheckpointWriter, error) {
	if ck.gz {
		// Rewrite to a sibling temp file and rename over the original only
		// once every parsed record is durable, so a second kill during the
		// rewrite cannot lose the records the first run already synced.
		// (The .gz suffix on the temp name keeps the gzip framing.)
		tmp := strings.TrimSuffix(path, ".gz") + ".rewrite.gz"
		w, err := CreateCheckpoint(tmp, ck.Suite, ck.Shard)
		if err != nil {
			return nil, err
		}
		abort := func(err error) (*CheckpointWriter, error) {
			w.f.Close()
			os.Remove(tmp)
			return nil, err
		}
		idxs := make([]int, 0, len(ck.Records))
		for idx := range ck.Records {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if err := w.writeRecord(ck.Records[idx]); err != nil {
				return abort(err)
			}
		}
		if err := w.sync(); err != nil {
			return abort(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return abort(fmt.Errorf("fleet: append checkpoint: %w", err))
		}
		return w, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: append checkpoint: %w", err)
	}
	if err := f.Truncate(ck.validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: append checkpoint: %w", err)
	}
	if _, err := f.Seek(ck.validBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: append checkpoint: %w", err)
	}
	return newCheckpointWriter(path, f), nil
}

// InterposeSink puts wrap(sink) at the head of the output pipeline — the
// chaos plane's hook for injecting torn and corrupted writes under the
// JSONL stream. Call it right after CreateCheckpoint or AppendCheckpoint:
// the header (already written) stays intact, and every subsequent record
// line reaches the file through the wrapper as exactly one Write. A nil
// wrap is a no-op.
func (c *CheckpointWriter) InterposeSink(wrap func(io.Writer) io.Writer) {
	if wrap == nil {
		return
	}
	var sink io.Writer = c.bw
	if c.zw != nil {
		sink = c.zw
	}
	c.sink = wrap(sink)
}

// Append writes one completed scenario record, stamped with its CRC32 so
// a reader can tell bit rot from truth.
func (c *CheckpointWriter) Append(rec RunRecord) error {
	if err := c.writeRecord(rec); err != nil {
		return err
	}
	c.unflushed++
	if c.unflushed < checkpointFlushEvery {
		return nil
	}
	if time.Since(c.lastSync) < checkpointSyncAfter {
		return c.flush()
	}
	return c.sync()
}

// writeRecord encodes rec once, checksums the bytes just written, splices
// the crc member in before the closing brace and writes the line.
func (c *CheckpointWriter) writeRecord(rec RunRecord) error {
	line, err := appendRecordJSON(c.line[:0], rec)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	sum := crc32.ChecksumIEEE(line)
	line = append(line[:len(line)-1], recKeyCRC...)
	line = strconv.AppendUint(line, uint64(sum), 10)
	c.line = append(line, '}', '\n')
	if _, err := c.sink.Write(c.line); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// Close flushes, syncs and closes the file. For gzip files it also writes
// the stream trailer, so only a Closed gzip checkpoint reads back without
// the torn-tail path. The trailer follows a flush, as it always has, and
// the one fsync covers both.
func (c *CheckpointWriter) Close() error {
	err := c.flush()
	if err == nil && c.zw != nil {
		if err = c.zw.Close(); err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			err = fmt.Errorf("fleet: checkpoint: %w", err)
		}
	}
	if err == nil {
		err = c.fsync()
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeHeader writes the header line.
func (c *CheckpointWriter) writeHeader(hdr checkpointHeader) error {
	line, err := json.Marshal(hdr)
	if err == nil {
		_, err = c.sink.Write(append(line, '\n'))
	}
	if err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// flush ends the current gzip block and hands the buffered bytes to the OS.
func (c *CheckpointWriter) flush() error {
	c.unflushed = 0
	if c.zw != nil {
		if err := c.zw.Flush(); err != nil {
			return fmt.Errorf("fleet: checkpoint: %w", err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// sync flushes and fsyncs.
func (c *CheckpointWriter) sync() error {
	if err := c.flush(); err != nil {
		return err
	}
	return c.fsync()
}

// fsync makes the flushed bytes durable and restarts the power-cut window.
func (c *CheckpointWriter) fsync() error {
	c.syncCalls++
	c.syncs.Inc(0)
	err := c.f.Sync()
	c.lastSync = time.Now()
	if err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// ReadShardSet reads and cross-validates a set of checkpoint / shard
// result files for merging: every file must describe the same suite
// (by fingerprint), and no scenario may appear in two files. It returns
// the common suite and the combined record map, ready for MergeRecords.
//
// Files are read concurrently, at most GOMAXPROCS at a time: a file is in
// flight from the start of its read until its records are combined, so a
// set of many shards never holds more than GOMAXPROCS payloads at once.
// Records are combined in argument order, and the error is the one a read
// of the files one after the other would return: that of the first file,
// in argument order, that fails to read, describes a different suite or
// repeats a scenario. ReadShardSet returns only after every read it
// started has finished.
func ReadShardSet(paths []string) (Suite, map[int]RunRecord, error) {
	if len(paths) == 0 {
		return Suite{}, nil, fmt.Errorf("%w: no shard files", ErrBadSuite)
	}
	type shardRead struct {
		ck  *Checkpoint
		err error
	}
	reads := make([]chan shardRead, len(paths))
	var wg sync.WaitGroup
	defer wg.Wait()
	window, started := runtime.GOMAXPROCS(0), 0
	var suite Suite
	var fingerprint string
	var combined map[int]RunRecord
	for i, path := range paths {
		// Keep files i … i+window−1 in flight.
		for ; started < len(paths) && started < i+window; started++ {
			ch := make(chan shardRead, 1) // the reader never blocks on its one send
			reads[started] = ch
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				ck, err := ReadCheckpoint(path)
				ch <- shardRead{ck, err}
			}(paths[started])
		}
		r := <-reads[i]
		if r.err != nil {
			return Suite{}, nil, r.err
		}
		ck := r.ck
		if fingerprint == "" {
			suite, fingerprint = ck.Suite, ck.Suite.Fingerprint()
			// Shards of one grid are near-equal slices: size for all of them
			// from the first so the map does not rehash per file.
			combined = make(map[int]RunRecord, len(ck.Records)*len(paths))
		} else if got := ck.Suite.Fingerprint(); got != fingerprint {
			return Suite{}, nil, fmt.Errorf("%w: %s was produced by a different suite (fingerprint %s, want %s)",
				ErrBadSuite, path, got, fingerprint)
		}
		for idx, rec := range ck.Records {
			if _, dup := combined[idx]; dup {
				return Suite{}, nil, fmt.Errorf("%w: scenario %d appears in more than one shard file (%s)",
					ErrBadSuite, idx, path)
			}
			combined[idx] = rec
		}
	}
	return suite, combined, nil
}
