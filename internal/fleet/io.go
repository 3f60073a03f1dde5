package fleet

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
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
		for rec := range ck.Records.records() {
			if err := w.writeRecord(*rec); err != nil {
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
