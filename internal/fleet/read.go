package fleet

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// Checkpoint is the parsed content of a checkpoint or shard result file.
type Checkpoint struct {
	// Suite is the defaulted suite the records were produced from.
	Suite Suite
	// Shard is the slice of the scenario index set the writer was assigned.
	Shard Shard
	// Records holds the completed records by scenario index.
	Records *RecordTable
	// Corrupted counts the lines that are not records — any line but the
	// final one that is not a record's canonical spelling, and any
	// canonical line whose CRC is missing or does not verify — and were
	// skipped. Their scenarios are simply missing from Records, so a resume
	// re-runs them; nothing about the rest of the file is distrusted.
	Corrupted int
	// validBytes is the extent of the intact newline-terminated prefix (of
	// the decompressed payload for gzip files); AppendCheckpoint truncates
	// plain files to it so a torn tail is never glued onto fresh records.
	validBytes int64
	// gz records that the file was gzip-framed; resume rewrites such files
	// instead of truncate-and-append.
	gz bool
}

// readBlockSize is the size of the blocks a checkpoint's payload is read
// in: gunzip output for a .gz file, file reads otherwise. A line that
// straddles blocks is carried over, so the size bounds no line. It is a
// variable only so that tests can make blocks small.
var readBlockSize = 128 << 10

// readDecoders is the number of goroutines that decode a file's blocks.
// A plain file's decoding is nearly all of its read, so two halve it; a
// .gz file's gunzip is slower than one decoder, so there they take turns.
const readDecoders = 2

// ReadCheckpoint parses a checkpoint file (gzip-framed when the path ends
// in .gz). The format is JSONL: a header line followed by one record per
// line. A line is a record only when it is the record codec's canonical
// spelling of one (decodeRecordLine) and carries the CRC32 of its own
// record bytes (lineCRC). A torn final line — the signature of a run
// killed mid-write — is ignored, so a crashed run's file is always
// loadable. Any other line that is not a record (damaged, or spelled in
// some other way — a flipped byte can leave valid JSON with a wrong value)
// is skipped and counted in Checkpoint.Corrupted rather than failing the
// load or silently truncating the resume prefix: the affected scenarios
// are re-run on resume, every record after them is kept.
//
// A gzip file is read as far as its stream decompresses. A run killed
// mid-write leaves a truncated stream and damaged deflate data stops it
// early: either way the lines decompressed before that point are the
// payload, its last line torn unless a newline ended it. A stream that
// decompresses whole but fails its trailer's checksum is read like a plain
// file, each line's CRC deciding.
//
// The file is read as a pipeline: one goroutine produces the payload in
// fixed blocks while others decode the complete lines in them, and the
// caller applies the decoded lines in payload order, carrying a line that
// straddles two blocks over to the next. A gzip file's decompression and
// its decoding overlap, and neither payload is ever held whole. The
// records land in a table with a slot for each scenario of the file's
// shard.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	r, err := readCheckpoint(path, 1, func(hdr *checkpointHeader, shard Shard) *RecordTable {
		return newRecordTable(hdr.Scenarios, shard)
	})
	if err != nil {
		return nil, err
	}
	r.ck.Records.n = r.claimed
	return r.ck, nil
}

// readCheckpoint reads one file as the file-th (1-based) of a set, its
// records claimed into the table that table returns for its header and
// shard.
func readCheckpoint(path string, file int32, table func(*checkpointHeader, Shard) *RecordTable) (*checkpointReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	defer f.Close()
	gz := gzipCheckpoint(path)
	var src io.Reader = f
	if gz {
		zr, err := gzip.NewReader(bufio.NewReaderSize(f, 64<<10))
		if err != nil {
			return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, path, err)
		}
		src = zr
	}
	r := &checkpointReader{
		path:  path,
		file:  file,
		table: table,
		ck:    &Checkpoint{gz: gz},
		// Room for any record line, so only a longer line that straddles
		// blocks, such as a long header, grows it.
		carry: make([]byte, 0, 2*maxRecordJSON),
	}
	p := startBlockPipe(src, readBlockSize)
	defer p.stop()
	for last := false; !last; {
		b := p.next()
		if err := rejects(b.err); err != nil {
			if gz {
				return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, path, err)
			}
			return nil, fmt.Errorf("fleet: read checkpoint: %w", err)
		}
		if err := r.block(b); err != nil {
			return nil, err
		}
		last = b.last
		p.release(b)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return r, nil
}

// readBlock is one block of a payload on its way through the read
// pipeline: the producer fills data, a decoder decodes the lines wholly
// inside it, and the reader applies it in payload order. A read keeps a
// fixed set of blocks cycling, so it allocates the same whatever the
// file's length.
type readBlock struct {
	buf  []byte
	data []byte        // buf[:n]: the payload bytes the block carries
	last bool          // the payload ends with this block
	err  error         // when last: why the payload ended
	done chan struct{} // a decoder has set the fields below

	head  int          // data[:head] ends the line earlier blocks began; -1: data holds no newline
	tail  int          // data[tail:] begins the line later blocks end
	lines []lineResult // the lines between, decoded
}

// lineResult is one decoded record line.
type lineResult struct {
	rec  RunRecord
	size int // without the newline
	kind lineKind
}

type lineKind uint8

const (
	lineRecord   lineKind = iota // a record whose CRC verifies
	lineBadCRC                   // a record's spelling whose CRC is missing or does not verify
	lineUnparsed                 // not a record's spelling
	lineBlank                    // whitespace only, so no record either
)

// decodeLine decodes one record line into res: the record codec decides
// whether the line spells a record, and the CRC is checked on the line's
// own bytes.
func decodeLine(line []byte, res *lineResult) {
	res.size = len(line)
	rec, crc, crcAt, ok := decodeRecordLine(line)
	switch {
	case !ok && len(bytes.TrimSpace(line)) == 0:
		res.kind = lineBlank
	case !ok:
		res.kind = lineUnparsed
	case crcAt < 0 || lineCRC(line, crcAt) != crc:
		res.kind = lineBadCRC
	default:
		res.rec, res.kind = rec, lineRecord
	}
}

// decode splits the block at its first and last newline and decodes the
// lines between.
func (b *readBlock) decode() {
	b.lines = b.lines[:0]
	b.head = bytes.IndexByte(b.data, '\n')
	if b.head < 0 {
		return
	}
	b.tail = bytes.LastIndexByte(b.data, '\n') + 1
	for rest := b.data[b.head+1 : b.tail]; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, newline)
		b.lines = append(b.lines, lineResult{})
		decodeLine(line, &b.lines[len(b.lines)-1])
	}
}

// blockPipe reads a payload as blocks: one goroutine produces them from
// the source, readDecoders goroutines decode them, and next hands them to
// the caller in payload order.
type blockPipe struct {
	free  chan *readBlock // blocks the producer may fill
	work  chan *readBlock // filled blocks, for the decoders
	order chan *readBlock // filled blocks, in payload order, for the caller
	quit  chan struct{}
	wg    sync.WaitGroup
}

func startBlockPipe(src io.Reader, blockSize int) *blockPipe {
	// One block filling, one per decoder, one being applied. Every queue
	// holds all of them, so no send waits.
	const blocks = readDecoders + 2
	p := &blockPipe{
		free:  make(chan *readBlock, blocks),
		work:  make(chan *readBlock, blocks),
		order: make(chan *readBlock, blocks),
		quit:  make(chan struct{}),
	}
	slab := make([]byte, blocks*blockSize)
	for i := range blocks {
		p.free <- &readBlock{
			buf: slab[i*blockSize : (i+1)*blockSize : (i+1)*blockSize],
			// A record line is at least 204 bytes (keys and braces), so
			// only a block of other lines grows the slice.
			lines: make([]lineResult, 0, blockSize/192),
			done:  make(chan struct{}, 1),
		}
	}
	p.wg.Add(1 + readDecoders)
	go p.produce(src)
	for range readDecoders {
		go p.decode()
	}
	return p
}

// produce fills blocks from src until the payload ends or the caller
// stops.
func (p *blockPipe) produce(src io.Reader) {
	defer p.wg.Done()
	defer close(p.work)
	for {
		var b *readBlock
		select {
		case b = <-p.free:
		case <-p.quit:
			return
		}
		n, err := io.ReadFull(src, b.buf)
		b.data, b.last, b.err = b.buf[:n], err != nil, err
		p.work <- b
		p.order <- b
		if b.last {
			return
		}
	}
}

func (p *blockPipe) decode() {
	defer p.wg.Done()
	for b := range p.work {
		b.decode()
		b.done <- struct{}{}
	}
}

// next returns the payload's next block, decoded.
func (p *blockPipe) next() *readBlock {
	b := <-p.order
	<-b.done
	return b
}

// release hands an applied block back to the producer.
func (p *blockPipe) release(b *readBlock) { p.free <- b }

// stop ends the pipeline wherever it is and waits for its goroutines.
func (p *blockPipe) stop() {
	close(p.quit)
	p.wg.Wait()
}

// rejects returns the error that ended a payload if it rejects the file,
// nil if the bytes read so far are the payload: at the payload's end
// (io.EOF, or io.ErrUnexpectedEOF from a part block or a truncated gzip
// stream), and at a damaged gzip stream.
func rejects(err error) error {
	if err == nil || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || damaged(err) {
		return nil
	}
	return err
}

// damaged reports a gzip stream that ended damaged: its deflate data
// undecodable (flate.CorruptInputError), or its trailer's checksum or
// length wrong (gzip.ErrChecksum, which Read returns once the stream is
// delivered whole). Its lines may be garbled, but only those a CRC vouches
// for are records anyway.
func damaged(err error) bool {
	return errors.Is(err, gzip.ErrChecksum) || errors.As(err, new(flate.CorruptInputError))
}

// checkpointReader applies a payload's lines in order: the header, then
// the record lines, claimed into the table. The payload's end decides how
// its last lines count — trailing blank lines are dropped, and when the
// payload does not end in a newline its last non-blank line is torn — so
// the last non-blank line and the blank lines after it are held until a
// later line or the end decides them.
type checkpointReader struct {
	path        string
	file        int32
	table       func(*checkpointHeader, Shard) *RecordTable
	ck          *Checkpoint
	fingerprint string
	scenarios   int
	hdrErr      error // the header's verdict, returned when the header is applied
	claimed     int   // slots this file filled
	clashes     []int // indices whose slot another file's record holds

	carry    []byte     // the line the blocks so far began and have not ended
	started  bool       // the header line has been seen
	nonBlank bool       // some line, or the final fragment, is not blank
	held     lineResult // the last non-blank record line, not yet applied
	heldBody bool       // held is a record line, not the header
	// Blank lines after the held line: count, bytes with newlines, and the
	// last one's bytes with its newline.
	blanks, blankBytes, lastBlank int
	// undo is the validBytes share of the last line applied when that line
	// was unparsed: it was counted Corrupted, which the end takes back if
	// it makes that line the final one. Zero otherwise.
	undo int
}

// block applies a decoded block: the line it ends, then the lines wholly
// inside it, and carries the line it begins over to the next block.
func (r *checkpointReader) block(b *readBlock) error {
	if b.head < 0 {
		r.carry = append(r.carry, b.data...)
		return nil
	}
	line := b.data[:b.head]
	if len(r.carry) > 0 {
		r.carry = append(r.carry, line...)
		line = r.carry
	}
	if !r.started {
		r.started = true
		r.nonBlank = len(bytes.TrimSpace(line)) != 0
		r.hdrErr = r.header(line)
	} else {
		var res lineResult
		decodeLine(line, &res)
		if err := r.line(&res); err != nil {
			return err
		}
	}
	for i := range b.lines {
		if err := r.line(&b.lines[i]); err != nil {
			return err
		}
	}
	r.carry = append(r.carry[:0], b.data[b.tail:]...)
	return nil
}

// header parses and checks the header line and picks the file's table.
func (r *checkpointReader) header(line []byte) error {
	var hdr checkpointHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("%w: checkpoint %s header: %v", ErrBadSuite, r.path, err)
	}
	if hdr.Version != CheckpointVersion {
		return fmt.Errorf("%w: checkpoint %s version %d, want %d",
			ErrBadSuite, r.path, hdr.Version, CheckpointVersion)
	}
	if got := hdr.Suite.Fingerprint(); got != hdr.Fingerprint {
		return fmt.Errorf("%w: checkpoint %s fingerprint %s does not match its suite (%s)",
			ErrBadSuite, r.path, hdr.Fingerprint, got)
	}
	// The count sizes the record table, so it must be the suite's own,
	// and the suite within bounds.
	if err := hdr.Suite.Validate(); err != nil {
		return fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, r.path, err)
	}
	if n := hdr.Suite.NumScenarios(); hdr.Scenarios != n {
		return fmt.Errorf("%w: checkpoint %s counts %d scenarios, its suite expands to %d",
			ErrBadSuite, r.path, hdr.Scenarios, n)
	}
	shard, err := ParseShard(hdr.Shard)
	if err != nil {
		return fmt.Errorf("%w: checkpoint %s: %v", ErrBadSuite, r.path, err)
	}
	r.ck.Suite, r.ck.Shard, r.fingerprint, r.scenarios = hdr.Suite, shard, hdr.Fingerprint, hdr.Scenarios
	r.ck.Records = r.table(&hdr, shard)
	r.ck.validBytes = int64(len(line) + 1)
	return nil
}

// line takes the next record line. A blank one waits with the held line;
// any other applies what was held and is held in turn.
func (r *checkpointReader) line(res *lineResult) error {
	if res.kind == lineBlank {
		r.blanks++
		r.blankBytes += res.size + 1
		r.lastBlank = res.size + 1
		return nil
	}
	r.nonBlank = true
	if err := r.flush(); err != nil {
		return err
	}
	r.held, r.heldBody = *res, true
	return nil
}

// flush applies the held line and the blank lines after it, none of them
// the payload's last.
func (r *checkpointReader) flush() error {
	if err := r.apply(false); err != nil {
		return err
	}
	if r.blanks > 0 {
		r.ck.Corrupted += r.blanks
		r.ck.validBytes += int64(r.blankBytes)
		r.undo = r.lastBlank
		r.blanks, r.blankBytes = 0, 0
	}
	return nil
}

// apply applies the held line — for the header, its verdict. A final
// line that spells no record is a torn tail from a killed run: the record
// is simply redone, so it is neither counted nor part of the valid prefix.
func (r *checkpointReader) apply(final bool) error {
	if !r.heldBody {
		return r.hdrErr
	}
	res := &r.held
	r.undo = 0
	switch res.kind {
	case lineRecord:
		if err := r.record(res); err != nil {
			return err
		}
	case lineBadCRC:
		r.ck.Corrupted++
	default:
		if final {
			return nil
		}
		// A torn or corrupted line mid-file (a chaos tear glues a half line
		// onto its successor). validBytes still advances: the damage is
		// already durable, and truncating it away would also discard every
		// good record that follows.
		r.ck.Corrupted++
		r.undo = res.size + 1
	}
	r.ck.validBytes += int64(res.size + 1)
	return nil
}

// record claims a record line's record.
func (r *checkpointReader) record(res *lineResult) error {
	if idx := res.rec.Index; idx < 0 || idx >= r.scenarios || !r.ck.Shard.Contains(idx) {
		return fmt.Errorf("%w: checkpoint %s has out-of-shard scenario %d",
			ErrBadSuite, r.path, idx)
	}
	claimed, clash := r.ck.Records.claim(&res.rec, r.file)
	if claimed {
		r.claimed++
	}
	if clash {
		r.clashes = append(r.clashes, res.rec.Index)
	}
	return nil
}

// end applies the lines the payload's end decides. A line is only durable
// once its newline is on disk, so a payload that does not end in one was
// cut mid-write and its last non-blank line is torn, even if the cut
// happened to land after complete JSON — counting it would make validBytes
// overshoot the file and corrupt the truncate-then-append resume path.
func (r *checkpointReader) end() error {
	frag := r.carry // after the last newline
	blankFrag := len(bytes.TrimSpace(frag)) == 0
	r.nonBlank = r.nonBlank || !blankFrag
	switch {
	case !r.nonBlank:
		return fmt.Errorf("%w: checkpoint %s is empty", ErrBadSuite, r.path)
	case !r.started:
		return fmt.Errorf("%w: checkpoint %s has a torn header", ErrBadSuite, r.path)
	case len(frag) == 0:
		// Intact: the blank lines after the held one are dropped, and the
		// held line is the last.
		return r.apply(true)
	case !blankFrag:
		// The fragment is the torn line; the line before it is the last.
		if r.blanks == 0 {
			return r.apply(true)
		}
		r.blanks--
		r.blankBytes -= r.lastBlank
		return r.flush()
	case !r.heldBody:
		return fmt.Errorf("%w: checkpoint %s has a torn header", ErrBadSuite, r.path)
	default:
		// Cut after whitespace: the held line is torn, and the line applied
		// before it was the last.
		if r.undo > 0 {
			r.ck.Corrupted--
			r.ck.validBytes -= int64(r.undo)
		}
		return nil
	}
}

// ReadShardSet reads and cross-validates a set of checkpoint / shard
// result files for merging: every file must describe the same suite
// (by fingerprint), and no scenario may appear in two files. It returns
// the common suite and the combined record table, ready for MergeRecords.
//
// Files are read concurrently, at most GOMAXPROCS at a time, and files of
// one suite claim their records straight into one table sized by its
// scenario count. The error is the one a read of the files one after the
// other would return: that of the first file, in argument order, that
// fails to read, describes a different suite or repeats a scenario.
// ReadShardSet returns only after every read it started has finished.
func ReadShardSet(paths []string) (Suite, *RecordTable, error) {
	if len(paths) == 0 {
		return Suite{}, nil, fmt.Errorf("%w: no shard files", ErrBadSuite)
	}
	// A file of another suite claims into a table of its own, so its
	// records never meet the others'; it is refused below.
	var mu sync.Mutex
	tables := make(map[string]*RecordTable, 1)
	table := func(hdr *checkpointHeader, _ Shard) *RecordTable {
		mu.Lock()
		defer mu.Unlock()
		t := tables[hdr.Fingerprint]
		if t == nil {
			t = newRecordTable(hdr.Scenarios, Shard{})
			tables[hdr.Fingerprint] = t
		}
		return t
	}
	type shardRead struct {
		r   *checkpointReader
		err error
	}
	reads := make([]chan shardRead, len(paths))
	var wg sync.WaitGroup
	defer wg.Wait()
	window, started := runtime.GOMAXPROCS(0), 0
	var first *checkpointReader
	var clashed map[int]bool // indices that the files checked so far found held by another
	n := 0
	for i, path := range paths {
		// Keep files i … i+window−1 in flight.
		for ; started < len(paths) && started < i+window; started++ {
			ch := make(chan shardRead, 1) // the reader never blocks on its one send
			reads[started] = ch
			wg.Add(1)
			go func(path string, file int32) {
				defer wg.Done()
				r, err := readCheckpoint(path, file, table)
				ch <- shardRead{r, err}
			}(paths[started], int32(started+1))
		}
		sr := <-reads[i]
		if sr.err != nil {
			return Suite{}, nil, sr.err
		}
		r := sr.r
		if first == nil {
			first = r
		} else if r.fingerprint != first.fingerprint {
			return Suite{}, nil, fmt.Errorf("%w: %s was produced by a different suite (fingerprint %s, want %s)",
				ErrBadSuite, path, r.fingerprint, first.fingerprint)
		}
		if idx, ok := r.repeats(clashed); ok {
			return Suite{}, nil, fmt.Errorf("%w: scenario %d appears in more than one shard file (%s)",
				ErrBadSuite, idx, path)
		}
		for _, idx := range r.clashes {
			if clashed == nil {
				clashed = make(map[int]bool)
			}
			clashed[idx] = true
		}
		n += r.claimed
	}
	first.ck.Records.n = n
	return first.ck.Suite, first.ck.Records, nil
}

// repeats finds a scenario this file shares with a file before it, given
// the indices those files found held by another. The table keeps the
// record that claimed a slot first, so a file repeats an earlier one if an
// earlier file holds one of its clashes, if an earlier file also clashed
// there, or if an earlier file clashed on a slot it holds.
func (r *checkpointReader) repeats(clashed map[int]bool) (int, bool) {
	t := r.ck.Records
	for _, idx := range r.clashes {
		if t.file(idx) < r.file || clashed[idx] {
			return idx, true
		}
	}
	for idx := range clashed {
		if t.file(idx) == r.file {
			return idx, true
		}
	}
	return 0, false
}
