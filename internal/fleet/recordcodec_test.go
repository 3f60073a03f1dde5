package fleet

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tolerance/internal/emulation"
	"tolerance/internal/fleet/proto"
)

// sampleRecord is a record shaped like the wide grid's: the sizes the
// allocation guards and BenchmarkRecordCodec measure.
var sampleRecord = RunRecord{Index: 24575, Cell: 3071, Metrics: emulation.Metrics{
	Availability: 0.9875, QuorumAvailability: 0.75, TimeToRecovery: 51.4,
	RecoveryFrequency: 0.12968299711815562, AvgNodes: 4.3375, AvgCost: 0.1930835734870317,
	Intrusions: 21, Recoveries: 45, Evictions: 0, Additions: 2,
}}

// refLine is a checkpoint record line as encoding/json sees it: the
// RunRecord fields flattened, then a CRC32 (IEEE) of the record's
// json.Marshal bytes, omitted when nil.
type refLine struct {
	RunRecord
	CRC *uint32 `json:"crc,omitempty"`
}

// checkpointLineOf is the reference writer: the line for rec, built with
// encoding/json alone.
func checkpointLineOf(t testing.TB, rec RunRecord) []byte {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := crc32.ChecksumIEEE(body)
	line, err := json.Marshal(refLine{RunRecord: rec, CRC: &sum})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// oneSpelling is the one-spelling rule, in encoding/json alone: raw is
// canonical when json.Unmarshal decodes it into v and json.Marshal of what
// it decoded writes raw back byte for byte.
func oneSpelling(raw []byte, v any) bool {
	if json.Unmarshal(raw, v) != nil {
		return false
	}
	back, err := json.Marshal(v)
	return err == nil && bytes.Equal(back, raw)
}

// referenceRecordLine classifies a checkpoint line by the one-spelling
// rule: spelled when it is json.Marshal's spelling of a refLine, and a
// record when it is also one whose crc is the CRC32 of json.Marshal(rec).
func referenceRecordLine(line []byte) (rec RunRecord, spelled, record bool) {
	var cl refLine
	if !oneSpelling(line, &cl) {
		return RunRecord{}, false, false
	}
	body, err := json.Marshal(cl.RunRecord)
	return cl.RunRecord, true, err == nil && cl.CRC != nil && *cl.CRC == crc32.ChecksumIEEE(body)
}

// sameRecord compares bit for bit, so -0 and 0 differ.
func sameRecord(a, b RunRecord) bool {
	fa, ia := recordFields(&a.Metrics)
	fb, ib := recordFields(&b.Metrics)
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
	}
	for i := range ia {
		if *ia[i] != *ib[i] {
			return false
		}
	}
	return a.Index == b.Index && a.Cell == b.Cell &&
		math.Float64bits(a.Metrics.ServiceLatencyMS) == math.Float64bits(b.Metrics.ServiceLatencyMS)
}

// checkEncode asserts the encoder against json.Marshal — bytes and
// accept/reject — and that its output decodes back through the fast path,
// bare (the wire) and with the crc member (a checkpoint line).
func checkEncode(t *testing.T, rec RunRecord) {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	got, err := appendRecordJSON(nil, rec)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendRecordJSON(%+v) error %v, json.Marshal error %v", rec, err, wantErr)
	}
	if err != nil {
		if !strings.Contains(wantErr.Error(), err.Error()) {
			t.Fatalf("appendRecordJSON error %q, json.Marshal says %q", err, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendRecordJSON:\n got %s\nwant %s", got, want)
	}
	if len(got)+len(`,"crc":4294967295}`)+1 > maxRecordJSON {
		t.Fatalf("a %d-byte record outgrows maxRecordJSON", len(got))
	}
	// What the fast path reads back is what encoding/json reads back (an
	// omitted -0 latency comes back as 0 either way).
	var ref RunRecord
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	back, _, crcAt, ok := decodeRecordLine(got)
	if !ok || crcAt != -1 || !sameRecord(back, ref) {
		t.Fatalf("decodeRecordLine(%s) = %+v, crcAt %d, ok %v", got, back, crcAt, ok)
	}
	line := checkpointLineOf(t, rec)
	back, crc, crcAt, ok := decodeRecordLine(line)
	if !ok || crcAt != bytes.Index(line, []byte(recKeyCRC)) || !sameRecord(back, ref) {
		t.Fatalf("decodeRecordLine(%s) = %+v, crcAt %d, ok %v", line, back, crcAt, ok)
	}
	if crc != crc32.ChecksumIEEE(want) {
		t.Fatalf("line carries crc %d, reference %d", crc, crc32.ChecksumIEEE(want))
	}
	// The writer's line checksums to its crc on its own bytes: the reader
	// verifies it without re-encoding.
	if sum := lineCRC(line, crcAt); sum != crc {
		t.Fatalf("lineCRC(%s) = %d, line carries %d", line, sum, crc)
	}
}

// checkDecode asserts the decoder against the one-spelling rule on
// arbitrary bytes: it accepts a line exactly when json.Marshal writes the
// line back from what encoding/json decodes — as a checkpoint line, the
// crc member optional — and then to the same value and CRC, with the crc
// member at crcAt.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	rec, crc, crcAt, ok := decodeRecordLine(line)
	var ref refLine
	if spelled := oneSpelling(line, &ref); ok != spelled {
		t.Fatalf("%q: decodeRecordLine ok = %v, one spelling %v", line, ok, spelled)
	}
	if !ok {
		if crcAt != -1 {
			t.Fatalf("%q declined with crcAt %d", line, crcAt)
		}
		return
	}
	hasCRC := crcAt >= 0
	if hasCRC && !bytes.HasPrefix(line[crcAt:], []byte(recKeyCRC)) {
		t.Fatalf("%q: crcAt %d is not the crc member", line, crcAt)
	}
	if !sameRecord(rec, ref.RunRecord) {
		t.Fatalf("%q: fast path %+v, encoding/json %+v", line, rec, ref.RunRecord)
	}
	if hasCRC != (ref.CRC != nil) || (hasCRC && crc != *ref.CRC) {
		t.Fatalf("%q: fast path crc %d (present %v), encoding/json %v", line, crc, hasCRC, ref.CRC)
	}
}

// codecFloats are the float64 cases with their own formatting rule.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 51.4, 0.12968299711815562, 1000,
	1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, // 'e' below 1e-6; e-09 → e-9
	1e20, 9.999999999999999e20, 1e21, -1e21, 1.5e300, // 'e' from 1e21
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308, // subnormals
	math.MaxFloat64, -math.MaxFloat64, math.Nextafter(1, 2), 123456789.125,
	math.Inf(1), math.Inf(-1), math.NaN(), // json.Marshal refuses these
}

var codecInts = []int{0, 1, -1, 45, 1 << 31, math.MaxInt64, math.MinInt64, 999999999999999999, -1000000000000000000}

func TestRecordCodecMatchesEncodingJSON(t *testing.T) {
	checkEncode(t, RunRecord{})
	checkEncode(t, sampleRecord)
	for _, f := range codecFloats {
		rec := sampleRecord
		floats, _ := recordFields(&rec.Metrics)
		for i := range floats {
			*floats[i] = f
			checkEncode(t, rec)
			*floats[i] = 0.25
		}
		rec.Metrics.ServiceLatencyMS = f // omitted when ±0
		checkEncode(t, rec)
	}
	for _, n := range codecInts {
		rec := sampleRecord
		rec.Index, rec.Cell = n, -n
		_, ints := recordFields(&rec.Metrics)
		for i := range ints {
			*ints[i] = n
		}
		checkEncode(t, rec)
	}
}

// TestRecordCodecCoversEveryField fails when RunRecord or Metrics gains a
// field the hand-written key table does not know: an omitempty one would
// slip past the byte comparison above while it is zero.
func TestRecordCodecCoversEveryField(t *testing.T) {
	var keys []string
	for _, typ := range []reflect.Type{reflect.TypeOf(RunRecord{}), reflect.TypeOf(emulation.Metrics{})} {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "" {
				name = typ.Field(i).Name
			}
			keys = append(keys, `"`+name+`":`)
		}
	}
	table := strings.Join(append(append([]string{recKeyIndex, recKeyCell}, recFloatKeys[:]...), recIntKeys[:]...), "") + recKeyLatency
	at := 0
	for _, key := range keys {
		i := strings.Index(table[at:], key)
		if i < 0 {
			t.Fatalf("field key %s missing from the codec's key table (or out of order): %s", key, table)
		}
		at += i + len(key)
	}
	if got := strings.Count(table, `":`); got != len(keys) {
		t.Errorf("codec key table has %d keys, the structs have %d fields", got, len(keys))
	}
}

// nonCanonicalLines are spellings the fast path must decline or agree on:
// invalid JSON numbers, valid JSON in another shape, and crc variants.
func nonCanonicalLines(t testing.TB) [][]byte {
	canon := string(checkpointLineOf(t, sampleRecord))
	with := func(old, new string) []byte {
		if !strings.Contains(canon, old) {
			t.Fatalf("canonical line has no %q", old)
		}
		return []byte(strings.Replace(canon, old, new, 1))
	}
	withCRC := func(value string) []byte {
		return []byte(canon[:strings.Index(canon, recKeyCRC)] + recKeyCRC + value + "}")
	}
	return [][]byte{
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":+1`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":01`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1.`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":.5`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1e999`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1e`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":-`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":0x10`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1_0`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":Infinity`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":"51.4"`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":null`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":5.14E+1`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":51.40`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":-0`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1e-999`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":0.0`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":0.0000001`),              // 1e-7
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1000000000000000000000`), // 1e+21
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1e+2`),
		with(`"TimeToRecovery":51.4`, `"TimeToRecovery":1.5e-09`),
		with(`"RecoveryFrequency":0.12968299711815562`, `"RecoveryFrequency":0.12968299711815563`),
		with(`"RecoveryFrequency":0.12968299711815562`, `"RecoveryFrequency":0.129682997118155620`),
		with(`"AvgNodes":4.3375`, `"AvgNodes":4.33750`),
		with(`"index":24575`, `"index":-0`),
		with(`"Additions":2}`, `"Additions":2,"ServiceLatencyMS":-0}`),
		with(`"Additions":2}`, `"Additions":2,"ServiceLatencyMS":1.50}`),
		with(`"Intrusions":21`, `"Intrusions":21.0`),
		with(`"Intrusions":21`, `"Intrusions":2e1`),
		with(`"Intrusions":21`, `"Intrusions":-0`),
		with(`"Intrusions":21`, `"Intrusions":021`),
		with(`"Intrusions":21`, `"Intrusions":9223372036854775808`),
		with(`"Intrusions":21`, `"Intrusions":-9223372036854775808`),
		with(`"index":24575,"cell":3071`, `"cell":3071,"index":24575`), // reordered keys
		with(`"index":24575`, `"Index":24575`),                         // encoding/json folds case
		with(`"index":24575`, `"index":24575,"index":7`),               // last duplicate wins
		with(`,"cell"`, ` , "cell"`),                                   // extra whitespace
		with(`{"index"`, "{\t\"index\""),
		append([]byte(canon), ' '),
		append([]byte(canon), '\r'),
		with(`,"crc"`, `,"note":"x","crc"`), // unknown keys
		with(`"Additions":2}`, `"Additions":2,"Extra":[1,{"a":null}]}`),
		with(`"Additions":2}`, `"Additions":2,"ServiceLatencyMS":0}`),
		with(`"Additions":2}`, `"Additions":2,"ServiceLatencyMS":12.5}`),
		withCRC(`null`),
		withCRC(`01`),
		withCRC(`-1`),
		withCRC(`1.0`),
		withCRC(`1e3`),
		withCRC(`0`),
		withCRC(`4294967295`),
		withCRC(`4294967296`),
		withCRC(`"1"`),
		[]byte(canon[:len(canon)-1]),
		[]byte(canon + "}"),
		[]byte(canon[:len(canon)/2]),
		[]byte(canon[:len(canon)/2] + canon), // a chaos tear glues half a line onto the next
		nil,
		[]byte("{}"),
		[]byte("null"),
	}
}

func TestRecordDecodeMatchesEncodingJSON(t *testing.T) {
	for _, line := range nonCanonicalLines(t) {
		checkDecode(t, line)
	}
	// The two shapes the writer produces must take the fast path, or the
	// guard above compares nothing.
	for _, line := range [][]byte{checkpointLineOf(t, sampleRecord), mustMarshal(t, sampleRecord)} {
		if _, _, _, ok := decodeRecordLine(line); !ok {
			t.Errorf("canonical line %s declined", line)
		}
	}
}

// TestRecordDecodeNumberSpellings holds the decoder's float check to the
// one-spelling rule on spellings of random values: the encoder's, the
// other strconv formats, a trailing zero, the last digit moved by one,
// and random decimals of 1 to 18 digits in plain and exponent notation.
func TestRecordDecodeNumberSpellings(t *testing.T) {
	canon := string(checkpointLineOf(t, sampleRecord))
	const field = `"Availability":0.9875`
	rng := rand.New(rand.NewSource(1))
	spellings := func(f float64) []string {
		enc, err := appendJSONFloat(nil, f)
		if err != nil {
			return nil
		}
		s := string(enc)
		out := []string{s, s + "0", s + ".0",
			strconv.FormatFloat(f, 'e', -1, 64), strconv.FormatFloat(f, 'f', -1, 64),
			strconv.FormatFloat(f, 'g', 17, 64), strconv.FormatFloat(f, 'e', 16, 64)}
		if mant, _, _ := strings.Cut(s, "e"); len(mant) > 0 {
			last := mant[len(mant)-1]
			for _, d := range []byte{last - 1, last + 1} {
				if d >= '0' && d <= '9' {
					out = append(out, mant[:len(mant)-1]+string(d)+s[len(mant):])
				}
			}
		}
		return out
	}
	for range 5000 {
		var values []float64
		switch rng.Intn(3) {
		case 0:
			values = append(values, math.Float64frombits(rng.Uint64()))
		case 1:
			values = append(values, rng.Float64()*math.Pow(10, float64(rng.Intn(50)-25)))
		}
		var nums []string
		for _, f := range values {
			nums = append(nums, spellings(f)...)
		}
		// A random decimal: digits, a point somewhere, maybe an exponent.
		digits := make([]byte, 1+rng.Intn(18))
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		num := string(digits)
		if at := rng.Intn(len(digits) + 1); at < len(digits) && at > 0 {
			num = num[:at] + "." + num[at:]
		}
		if rng.Intn(4) == 0 {
			num += fmt.Sprintf("e%d", rng.Intn(60)-30)
		}
		if rng.Intn(2) == 0 {
			num = "-" + num
		}
		nums = append(nums, num)
		for _, num := range nums {
			checkDecode(t, []byte(strings.Replace(canon, field, `"Availability":`+num, 1)))
		}
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzRecordCodec is the differential against encoding/json in both
// directions: the typed arguments build a record to encode, line is
// arbitrary bytes to decode.
func FuzzRecordCodec(f *testing.F) {
	m := sampleRecord.Metrics
	f.Add([]byte(nil), sampleRecord.Index, sampleRecord.Cell, m.Availability, m.QuorumAvailability,
		m.TimeToRecovery, m.RecoveryFrequency, m.AvgNodes, m.AvgCost, m.ServiceLatencyMS,
		m.Intrusions, m.Recoveries, m.Evictions, m.Additions)
	for i, line := range nonCanonicalLines(f) {
		x := codecFloats[i%len(codecFloats)]
		n := codecInts[i%len(codecInts)]
		f.Add(line, n, -n, x, -x, x/3, x*3, 1-x, 1/x, x, n, n+1, n-1, -n)
	}
	f.Fuzz(func(t *testing.T, line []byte, index, cell int, av, qa, ttr, rf, nodes, cost, latency float64,
		intrusions, recoveries, evictions, additions int) {
		checkEncode(t, RunRecord{Index: index, Cell: cell, Metrics: emulation.Metrics{
			Availability: av, QuorumAvailability: qa, TimeToRecovery: ttr, RecoveryFrequency: rf,
			AvgNodes: nodes, AvgCost: cost, ServiceLatencyMS: latency,
			Intrusions: intrusions, Recoveries: recoveries, Evictions: evictions, Additions: additions,
		}})
		checkDecode(t, line)
	})
}

// readCheckpointReference is the oracle ReadCheckpoint is held to: gunzip
// with io.ReadAll, split a string copy into lines, classify every line by
// the one-spelling rule in encoding/json alone (referenceRecordLine),
// collect the records in a map. A line that is json.Marshal's spelling of
// a record line with a wrong or missing crc counts as Corrupted wherever
// it is; any other line that is not a record counts unless it is the last.
func readCheckpointReference(path string) (*Checkpoint, error) {
	data, _, err := checkpointPayload(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadSuite)
	}
	lines := strings.Split(string(data), "\n")
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadSuite)
	}
	torn := data[len(data)-1] != '\n'
	if torn && len(lines) == 1 {
		return nil, fmt.Errorf("%w: torn header", ErrBadSuite)
	}
	body := lines[1:]
	if torn {
		body = body[:len(body)-1]
	}
	var hdr checkpointHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSuite, err)
	}
	if hdr.Version != CheckpointVersion || hdr.Suite.Fingerprint() != hdr.Fingerprint ||
		hdr.Suite.Validate() != nil || hdr.Scenarios != hdr.Suite.NumScenarios() {
		return nil, fmt.Errorf("%w: version, fingerprint, suite or scenario count", ErrBadSuite)
	}
	shard, err := ParseShard(hdr.Shard)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSuite, err)
	}
	ck := &Checkpoint{Suite: hdr.Suite, Shard: shard}
	records := map[int]RunRecord{}
	for i, line := range body {
		rec, spelled, record := referenceRecordLine([]byte(line))
		if !spelled && i == len(body)-1 {
			break // a torn tail
		}
		if !record {
			ck.Corrupted++
			continue
		}
		if rec.Index < 0 || rec.Index >= hdr.Scenarios || !shard.Contains(rec.Index) {
			return nil, fmt.Errorf("%w: out-of-shard scenario %d", ErrBadSuite, rec.Index)
		}
		records[rec.Index] = rec
	}
	ck.Records = tableOf(records)
	return ck, nil
}

// checkpointPayload is a checkpoint file's JSONL payload as the reference
// reads it: a gzip file decompressed with io.ReadAll as far as its stream
// goes. Three stream failures keep what was decompressed before them: a
// truncated stream (a run killed mid-write), and, reported as damaged,
// undecodable deflate data and a trailer whose checksum does not match,
// which gzip.Reader.Read reports at the end of the stream (Close checks
// nothing).
func checkpointPayload(path string) (data []byte, damaged bool, err error) {
	data, err = os.ReadFile(path)
	if err != nil || !gzipCheckpoint(path) {
		return data, false, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, false, err
	}
	data, err = io.ReadAll(zr)
	damaged = errors.Is(err, gzip.ErrChecksum) || errors.As(err, new(flate.CorruptInputError))
	if err != nil && !damaged && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, false, err
	}
	return data, damaged, nil
}

// checkReadCheckpoint asserts ReadCheckpoint against the reference on one
// file: same accept/reject, records and Corrupted count.
func checkReadCheckpoint(t *testing.T, path string) *Checkpoint {
	t.Helper()
	got, err := ReadCheckpoint(path)
	want, wantErr := readCheckpointReference(path)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("ReadCheckpoint error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	if got.Corrupted != want.Corrupted || got.Shard != want.Shard || got.Suite.Fingerprint() != want.Suite.Fingerprint() {
		t.Fatalf("ReadCheckpoint: corrupted %d shard %v, reference %d / %v",
			got.Corrupted, got.Shard, want.Corrupted, want.Shard)
	}
	if got.Records.Len() != want.Records.Len() {
		t.Fatalf("ReadCheckpoint: %d records, reference %d", got.Records.Len(), want.Records.Len())
	}
	for rec := range want.Records.records() {
		if g, ok := got.Records.get(rec.Index); !ok || !sameRecord(*g, *rec) {
			t.Fatalf("record %d: %+v (present %v), reference %+v", rec.Index, g, ok, *rec)
		}
	}
	return got
}

// checkpointFile is a checkpoint file's bytes and whether its name ends in
// .gz.
type checkpointFile struct {
	data []byte
	gz   bool
}

// damagedCheckpoints builds the reader's hard cases from a real shard file,
// and from synthetic gzip files of wide records the damaged .gz cases.
func damagedCheckpoints(t testing.TB, wideRecords int) map[string]checkpointFile {
	t.Helper()
	plain := mustReadFile(t, filepath.Join("testdata", "v1-parent.jsonl"))
	zipped := mustReadFile(t, filepath.Join("testdata", "v1-parent.jsonl.gz"))
	_, wide, flippedMid, flippedCRC, undecodable := damagedGzip(t, wideRecords)
	_, _, flippedMidSmall, _, _ := damagedGzip(t, 64)
	_, garbled, _ := garbledGzip(t, 16)
	lines := bytes.SplitAfter(plain, newline)
	lines = lines[:len(lines)-1] // the empty piece after the final newline
	edit := func(f func(lines [][]byte) [][]byte) []byte {
		cp := make([][]byte, len(lines))
		for i, l := range lines {
			cp[i] = bytes.Clone(l)
		}
		return bytes.Join(f(cp), nil)
	}
	// reseeded gives the header's suite seedsPerCell seeds a cell, its
	// fingerprint and scenario count made to agree.
	reseeded := func(seedsPerCell int) []byte {
		return edit(func(l [][]byte) [][]byte {
			var hdr checkpointHeader
			if err := json.Unmarshal(l[0], &hdr); err != nil {
				t.Fatal(err)
			}
			hdr.Suite.SeedsPerCell = seedsPerCell
			hdr.Fingerprint, hdr.Scenarios = hdr.Suite.Fingerprint(), hdr.Suite.NumScenarios()
			l[0] = append(mustMarshal(t, hdr), '\n')
			return l
		})
	}
	return map[string]checkpointFile{
		"intact":           {plain, false},
		"intact-gz":        {zipped, true},
		"gzip-truncated":   {zipped[:len(zipped)*2/3], true},
		"gzip-garbage":     {append(bytes.Clone(zipped[:len(zipped)/2]), "not deflate"...), true},
		"torn-tail":        {plain[:len(plain)-40], false},
		"torn-after-brace": {plain[:len(plain)-1], false},
		"torn-header":      {plain[:100], false},
		"blank-tail":       {append(bytes.Clone(plain), " \n\t\n"...), false},
		"blank-torn":       {append(bytes.Clone(plain), "  "...), false},
		"crlf": {edit(func(l [][]byte) [][]byte {
			l[2] = append(bytes.TrimSuffix(l[2], newline), "\r\n"...)
			return l
		}), false},
		"crc-bad": {edit(func(l [][]byte) [][]byte {
			l[2] = bytes.Replace(l[2], []byte(`"Recoveries":`), []byte(`"Recoveries":1`), 1)
			return l
		}), false},
		"mid-file-tear": {edit(func(l [][]byte) [][]byte {
			l[3] = l[3][:len(l[3])/2] // glued onto its successor
			return l
		}), false},
		"empty-line": {edit(func(l [][]byte) [][]byte {
			l[1] = append([]byte("\n"), l[1]...)
			return l
		}), false},
		// Files written before lines carried a crc: every line is damage.
		"legacy-no-crc": {edit(func(l [][]byte) [][]byte {
			for i := 1; i < len(l); i++ {
				l[i] = append(l[i][:bytes.Index(l[i], []byte(recKeyCRC))], "}\n"...)
			}
			return l
		}), false},
		"legacy-flipped-value": {edit(func(l [][]byte) [][]byte {
			l[1] = append(l[1][:bytes.Index(l[1], []byte(recKeyCRC))], "}\n"...)
			return bytes.SplitAfter(bytes.Replace(bytes.Join(l, nil), []byte(`"Recoveries":`), []byte(`"Recoveries":7`), 1), newline)
		}), false},
		// The crc member first, whitespace after it: a spelling of the
		// values the crc verifies, but not the record's.
		"reordered-keys": {edit(func(l [][]byte) [][]byte {
			at := bytes.Index(l[1], []byte(recKeyCRC))
			crc, fields := l[1][at+1:len(l[1])-2], l[1][1:at]
			l[1] = []byte(fmt.Sprintf("{%s, %s}\n", crc, fields))
			return l
		}), false},
		"out-of-shard": {edit(func(l [][]byte) [][]byte {
			rec := RunRecord{Index: 1}
			return append(l, append(checkpointLineOf(t, rec), '\n'))
		}), false},
		"last-line-garbage": {append(bytes.Clone(plain), "{\"index\":\n"...), false},
		// The key order and crc the writer writes, other spellings of the
		// same values: no record's spelling, so damage (the last line a torn
		// tail), though the values would checksum to the crc.
		"respelled-floats": {edit(func(l [][]byte) [][]byte {
			l[1] = bytes.Replace(l[1], []byte(`"QuorumAvailability":0.75,`), []byte(`"QuorumAvailability":0.750,`), 1)
			l[2] = bytes.Replace(l[2], []byte(`"TimeToRecovery":1000,`), []byte(`"TimeToRecovery":1e3,`), 1)
			l[8] = bytes.Replace(l[8], []byte(`"AvgCost":0.85,`), []byte(`"AvgCost":8.5e-1,`), 1)
			return l
		}), false},
		"metric-digit-flip": {edit(func(l [][]byte) [][]byte {
			l[4] = bytes.Replace(l[4], []byte(`"Availability":0.5375,`), []byte(`"Availability":0.5376,`), 1)
			return l
		}), false},
		"crc-digit-flip": {edit(func(l [][]byte) [][]byte {
			l[6] = bytes.Replace(l[6], []byte(`"crc":1115699595}`), []byte(`"crc":1115699596}`), 1)
			return l
		}), false},
		// Cut after whitespace, the last record torn: the line before it is
		// the final one, so its parse failure is a torn tail, not damage.
		"garbage-before-blank-torn": {edit(func(l [][]byte) [][]byte {
			n := len(l)
			return append(l[:n-1:n-1], []byte("{\"index\":\n"), l[n-1], []byte("  "))
		}), false},
		"blank-before-blank-torn": {edit(func(l [][]byte) [][]byte {
			n := len(l)
			return append(l[:n-1:n-1], []byte(" \n"), l[n-1], []byte("\t"))
		}), false},
		// The header's count sizes the record table, so one that disagrees
		// with its suite is refused rather than allocated.
		"header-count": {edit(func(l [][]byte) [][]byte {
			l[0] = bytes.Replace(l[0], []byte(`"scenarios":16,`), []byte(`"scenarios":1600000000000,`), 1)
			return l
		}), false},
		// Headers that agree with themselves on a count no table can hold:
		// 10¹⁵ scenarios, and 8 cells × MaxInt/4 seeds, which wraps negative.
		"header-huge-suite":     {reseeded(125e12), false},
		"header-overflow-suite": {reseeded(math.MaxInt / 4), false},
		// A torn line after blank lines: the last of them is the final line.
		"blanks-then-torn": {append(bytes.Clone(plain), " \n\t\n{\"ind"...), false},
		"wide-gz":          {wide, true},
		"gzip-flipped-mid": {flippedMid, true},
		"gzip-flipped-crc": {flippedCRC, true},
		"gzip-undecodable": {undecodable, true},
		// The midpoint flip of a smaller file garbles lines into valid
		// JSON without a crc member and with an index out of range: no
		// record's spelling, so they count as Corrupted (the last one as a
		// torn tail) rather than rejecting the file.
		"gzip-flipped-mid-small": {flippedMidSmall, true},
		// A flip that garbles a line into valid JSON without a crc member
		// and with an index of the shard: no record either.
		"gzip-garbled-legacy": {garbled, true},
	}
}

// writeCheckpointFile writes data as dir/ck.jsonl, or ck.jsonl.gz for gz.
func writeCheckpointFile(t testing.TB, dir string, data []byte, gz bool) string {
	t.Helper()
	path := filepath.Join(dir, "ck.jsonl")
	if gz {
		path += ".gz"
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadCheckpointMatchesReference(t *testing.T) {
	// Pinned outcomes, so the differential cannot pass by both sides
	// failing the same way: records, corrupted, loadable.
	want := map[string][3]int{
		"intact": {8, 0, 1}, "intact-gz": {8, 0, 1}, "torn-tail": {7, 0, 1},
		"torn-after-brace": {7, 0, 1}, "crc-bad": {7, 1, 1}, "mid-file-tear": {6, 1, 1},
		"legacy-no-crc": {0, 8, 1}, "legacy-flipped-value": {7, 1, 1}, "reordered-keys": {7, 1, 1},
		"empty-line": {8, 1, 1}, "crlf": {7, 1, 1}, "blank-tail": {8, 0, 1}, "blank-torn": {7, 0, 1},
		"last-line-garbage": {8, 0, 1}, "torn-header": {}, "out-of-shard": {},
		"respelled-floats": {5, 2, 1}, "metric-digit-flip": {7, 1, 1}, "crc-digit-flip": {7, 1, 1},
		"garbage-before-blank-torn": {7, 0, 1}, "blank-before-blank-torn": {7, 0, 1}, "blanks-then-torn": {8, 1, 1},
		"wide-gz": {256, 0, 1}, "gzip-flipped-crc": {256, 0, 1}, "header-count": {},
		"header-huge-suite": {}, "header-overflow-suite": {},
		"gzip-flipped-mid-small": {21, 47, 1}, "gzip-garbled-legacy": {0, 15, 1},
	}
	for name, file := range damagedCheckpoints(t, 256) {
		t.Run(name, func(t *testing.T) {
			path := writeCheckpointFile(t, t.TempDir(), file.data, file.gz)
			ck := checkReadCheckpoint(t, path)
			w, pinned := want[name]
			if !pinned {
				return
			}
			if (ck != nil) != (w[2] == 1) {
				t.Fatalf("loadable = %v, want %v", ck != nil, w[2] == 1)
			}
			if _, _, err := ReadShardSet([]string{path}); (err == nil) != (w[2] == 1) {
				t.Fatalf("ReadShardSet error %v, want loadable = %v", err, w[2] == 1)
			}
			if ck != nil && (ck.Records.Len() != w[0] || ck.Corrupted != w[1]) {
				t.Errorf("%d records, %d corrupted; want %d, %d", ck.Records.Len(), ck.Corrupted, w[0], w[1])
			}
		})
	}
}

// TestCheckpointCRCPaths pins which check decides each record line of the
// hard cases: a line the writer produced verifies on its own bytes; a line
// that spells its values another way is no record's spelling, whatever its
// crc; a flipped digit in a metric or in the crc leaves a canonical line
// whose crc does not verify; a line without a crc verifies nothing.
func TestCheckpointCRCPaths(t *testing.T) {
	cases := damagedCheckpoints(t, 256)
	for name, want := range map[string][4]int{ // verified, not spelled, crc wrong, crc missing
		"intact":            {8, 0, 0, 0},
		"respelled-floats":  {5, 3, 0, 0},
		"reordered-keys":    {7, 1, 0, 0},
		"metric-digit-flip": {7, 0, 1, 0},
		"crc-digit-flip":    {7, 0, 1, 0},
		"legacy-no-crc":     {0, 0, 0, 8},
	} {
		lines := bytes.Split(bytes.TrimSuffix(cases[name].data, newline), newline)[1:]
		var got [4]int
		for _, line := range lines {
			_, crc, crcAt, ok := decodeRecordLine(line)
			switch {
			case !ok:
				got[1]++
			case crcAt < 0:
				got[3]++
			case lineCRC(line, crcAt) != crc:
				got[2]++
			default:
				got[0]++
			}
		}
		if got != want {
			t.Errorf("%s: %v lines verified / not spelled canonically / crc wrong / crc missing, want %v", name, got, want)
		}
	}
}

// FuzzReadCheckpoint mutates whole files — plain and gzip-framed — and
// the size of the blocks the reader takes the payload in, 1 to 512 bytes,
// so that headers, record lines, blank tails and torn gzip tails straddle
// blocks, and holds ReadCheckpoint to the reference reader. Its damaged
// .gz seeds have 64 records: at one-byte blocks a 256-record payload costs
// as much as a hundred small inputs.
func FuzzReadCheckpoint(f *testing.F) {
	cases := damagedCheckpoints(f, 64)
	for i, name := range slices.Sorted(maps.Keys(cases)) {
		f.Add(cases[name].data, cases[name].gz, uint16(37*i))
	}
	intact, header := cases["intact"].data, bytes.IndexByte(cases["intact"].data, '\n')+1
	f.Add(intact, false, uint16(100-1))                     // the header spans five blocks
	f.Add(intact, false, uint16(header-1))                  // the header ends a block
	f.Add(intact, false, uint16(41-1))                      // so does the first record line, at 17 × 41 bytes
	f.Add(cases["gzip-truncated"].data, true, uint16(97-1)) // the cut payload ends mid-block
	f.Add(cases["gzip-flipped-mid"].data, true, uint16(300-1))
	f.Add(cases["gzip-flipped-crc"].data, true, uint16(512-1))
	f.Add(cases["gzip-undecodable"].data, true, uint16(333-1))
	dir := f.TempDir() // one per fuzz worker process, which runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte, gz bool, block uint16) {
		defer func(n int) { readBlockSize = n }(readBlockSize)
		readBlockSize = 1 + int(block)%512
		checkReadCheckpoint(t, writeCheckpointFile(t, dir, data, gz))
	})
}

// TestGoldenParentCheckpoints reads shard files written by the commit
// before the codec (testSuite, shards 0/2 plain and 1/2 gzip): they must
// load in full, merge to the bytes of a direct run, and re-encode to the
// bytes on disk. The merge leg compares cell by cell: since q became an
// exact evaluation (a declared rng rebase of TOLERANCE's replication
// strategy), TOLERANCE records and cells may differ from the files, every
// other cell's must not.
func TestGoldenParentCheckpoints(t *testing.T) {
	suite := testSuite()
	paths := []string{filepath.Join("testdata", "v1-parent.jsonl"), filepath.Join("testdata", "v1-parent.jsonl.gz")}
	mergedSuite, records, err := ReadShardSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if mergedSuite.Fingerprint() != suite.Fingerprint() {
		t.Fatal("golden files describe a different suite than testSuite()")
	}
	merged, err := MergeRecords(mergedSuite, records)
	if err != nil {
		t.Fatal(err)
	}
	direct, directRecs := collectRecords(t, suite, Shard{}, nil)
	cells := suite.Cells()
	rebased := func(cell int) bool { return cells[cell].Policy == PolicyTolerance }
	for _, rec := range directRecs {
		golden, _ := records.get(rec.Index)
		if !rebased(rec.Cell) && !bytes.Equal(mustMarshal(t, rec), mustMarshal(t, golden)) {
			t.Errorf("record %d (%s) differs from the parent's", rec.Index, cells[rec.Cell].Policy)
		}
	}
	for i := range direct.Cells {
		if !rebased(i) && !bytes.Equal(mustMarshal(t, merged.Cells[i]), mustMarshal(t, direct.Cells[i])) {
			t.Errorf("cell %d (%s): merge of the parent's shard files differs from a direct run", i, cells[i].Policy)
		}
	}

	for i, path := range paths {
		ck := checkReadCheckpoint(t, path)
		if ck.Corrupted != 0 || ck.Records.Len() != suite.NumScenarios()/2 {
			t.Fatalf("%s: %d records, %d corrupted", path, ck.Records.Len(), ck.Corrupted)
		}
		// Rewrite the shard with today's writer, in the original order.
		out := filepath.Join(t.TempDir(), filepath.Base(path))
		w, err := CreateCheckpoint(out, ck.Suite, Shard{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < suite.NumScenarios(); idx++ {
			if rec, ok := ck.Records.get(idx); ok {
				if err := w.Append(*rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, _, err := checkpointPayload(path)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := checkpointPayload(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s re-encodes differently:\n got %s\nwant %s", path, got, want)
		}
	}
}

// TestRecordCodecZeroAllocs pins the steady-state record paths at zero
// allocations: a plain writer's line (encode, CRC, splice, one Write into
// the buffered file; the periodic fsync is Append's, not the line's) and
// the reader's decode with the CRC checked on the line's bytes.
func TestRecordCodecZeroAllocs(t *testing.T) {
	w, err := CreateCheckpoint(filepath.Join(t.TempDir(), "ck.jsonl"), testSuite(), Shard{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if n := testing.AllocsPerRun(200, func() {
		if err := w.writeRecord(sampleRecord); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writing a record line: %v allocs, want 0", n)
	}

	line := checkpointLineOf(t, sampleRecord)
	if n := testing.AllocsPerRun(200, func() {
		_, crc, crcAt, ok := decodeRecordLine(line)
		if !ok || crcAt < 0 {
			t.Fatal("canonical line declined")
		}
		if lineCRC(line, crcAt) != crc {
			t.Fatal("CRC mismatch")
		}
	}); n != 0 {
		t.Errorf("decoding and verifying a record line: %v allocs, want 0", n)
	}
}

// TestCheckpointWriterOneWritePerLine: the chaos sink tears and corrupts
// whole lines, which only works if each record reaches it as one Write.
func TestCheckpointWriterOneWritePerLine(t *testing.T) {
	for _, name := range []string{"ck.jsonl", "ck.jsonl.gz"} {
		w, err := CreateCheckpoint(filepath.Join(t.TempDir(), name), testSuite(), Shard{})
		if err != nil {
			t.Fatal(err)
		}
		var writes [][]byte
		w.InterposeSink(func(next io.Writer) io.Writer {
			return writerFunc(func(p []byte) (int, error) {
				writes = append(writes, bytes.Clone(p))
				return next.Write(p)
			})
		})
		recs := []RunRecord{{Index: 0}, sampleRecord, {Index: 2, Metrics: emulation.Metrics{ServiceLatencyMS: 1.5}}}
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(writes) != len(recs) {
			t.Fatalf("%s: %d writes for %d records", name, len(writes), len(recs))
		}
		for i, rec := range recs {
			if want := append(checkpointLineOf(t, rec), '\n'); !bytes.Equal(writes[i], want) {
				t.Errorf("%s: write %d = %q, want %q", name, i, writes[i], want)
			}
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestGzipResumeRewriteSyncsOnce: rewriting a gzip checkpoint on resume
// syncs once before the rename, not at every checkpointFlushEvery replayed
// records, and leaves the fresh-record cadence alone.
func TestGzipResumeRewriteSyncsOnce(t *testing.T) {
	suite := testSuite()
	suite.SeedsPerCell = 20 // 160 scenarios: ten sync batches' worth
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	_, recs := collectRecords(t, suite, Shard{}, nil)
	w, err := CreateCheckpoint(path, suite, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	kept := recs[:len(recs)-checkpointFlushEvery-3]
	for _, rec := range kept {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// A resume killed after the rewrite but before the rename leaves a
	// complete sibling temp file and the original untouched: the original
	// still loads, and the next resume overwrites the stale sibling.
	original := mustReadFile(t, path)
	stale := strings.TrimSuffix(path, ".gz") + ".rewrite.gz"
	if err := os.WriteFile(stale, original[:len(original)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if again, err := ReadCheckpoint(path); err != nil || again.Records.Len() != len(kept) {
		t.Fatalf("original beside a stale rewrite: %v", err)
	}

	rw, err := AppendCheckpoint(path, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("temp file still present after the rename: %v", err)
	}
	// The rewrite is durable before any fresh record: abandon the writer
	// here, as a kill would, and everything replayed reads back. Its
	// replayed records lie between the header's flush point and the one
	// before the rename, with none among them: an fsync follows only a
	// flush point, so the rewrite synced at those two alone.
	if mid, err := ReadCheckpoint(path); err != nil || mid.Records.Len() != len(kept) {
		t.Fatalf("rewritten file before fresh records: %v", err)
	}
	payload := mustReadFile(t, path)
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(zr) // the stream has no trailer yet
	if want := gzipReference(plain, 0, false); !bytes.Equal(payload, want) {
		t.Errorf("rewrite of %d records (%d bytes) is not one block after the header's (%d bytes)",
			len(kept), len(payload), len(want))
	}
	// Fresh records flush every checkpointFlushEvery, and fsync there once
	// the power-cut window is due.
	syncs := countSyncs(rw)
	dueSync(rw)
	for _, rec := range recs[len(kept):] {
		if err := rw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := syncs(); n != 1 {
		t.Errorf("%d fresh records issued %d syncs, want 1 (flush every %d)",
			len(recs)-len(kept), n, checkpointFlushEvery)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	final := checkReadCheckpoint(t, path)
	if final.Records.Len() != len(recs) || final.Corrupted != 0 {
		t.Errorf("resumed file has %d records (%d corrupted), want %d", final.Records.Len(), final.Corrupted, len(recs))
	}
	zr, err = gzip.NewReader(bytes.NewReader(mustReadFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Errorf("resumed gzip file has no clean trailer: %v", err)
	}
}

func mustReadFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkRecordCodec is the record layer's go test -bench row: one
// checkpoint line written (encode + CRC + splice into a discarded sink) and
// one read back (decode + CRC over the line's record bytes), beside
// encoding/json doing the same; and one worker batch of 64 records as a
// Records frame, spliced by the worker and decoded by the coordinator,
// beside the proto.Encode / proto.Decode reference.
func BenchmarkRecordCodec(b *testing.B) {
	batch := make([]RunRecord, workerBatchRecords)
	for i := range batch {
		batch[i] = sampleRecord
		batch[i].Index, batch[i].Cell = i, i/8
	}
	frame, err := appendRecordsFrame(nil, 1, 0, batch)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("records-frame-encode", func(b *testing.B) {
		buf := make([]byte, 0, len(frame))
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendRecordsFrame(buf[:0], 1, 0, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("records-frame-decode", func(b *testing.B) {
		recs := make([]RunRecord, 0, len(batch))
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			var ok bool
			if _, _, recs, ok = decodeRecordsFrame(frame, recs[:0]); !ok || len(recs) != len(batch) {
				b.Fatal("spliced frame declined")
			}
		}
	})
	b.Run("reference-proto-encode", func(b *testing.B) {
		raws := make([]json.RawMessage, len(batch))
		var arena []byte
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			arena = arena[:0]
			for j, rec := range batch {
				start := len(arena)
				var err error
				if arena, err = appendRecordJSON(arena, rec); err != nil {
					b.Fatal(err)
				}
				raws[j] = arena[start:]
			}
			if _, err := proto.Encode(proto.KindRecords, proto.Records{LeaseID: 1, Records: raws}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference-proto-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, _, recs, ok := decodeRecordsFrameReference(frame); !ok || len(recs) != len(batch) {
				b.Fatal("frame declined")
			}
		}
	})
	lease := proto.Lease{ID: 1 << 40, Start: 24000, End: 24256}
	ack := proto.RecordsAck{LeaseID: 1 << 40, Seq: 3}
	leaseFrame, ackFrame := appendLeaseFrame(nil, lease), appendRecordsAckFrame(nil, ack)
	control := make([]byte, 0, maxControlFrame)
	b.Run("records-ack-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(ackFrame)))
		for i := 0; i < b.N; i++ {
			control = appendRecordsAckFrame(control[:0], ack)
		}
	})
	b.Run("records-ack-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(ackFrame)))
		for i := 0; i < b.N; i++ {
			if got, ok := decodeRecordsAckFrame(ackFrame); !ok || got != ack {
				b.Fatal("ack frame declined")
			}
		}
	})
	b.Run("lease-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(leaseFrame)))
		for i := 0; i < b.N; i++ {
			control = appendLeaseFrame(control[:0], lease)
		}
	})
	b.Run("lease-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(leaseFrame)))
		for i := 0; i < b.N; i++ {
			if got, ok := decodeLeaseFrame(leaseFrame); !ok || got != lease {
				b.Fatal("lease frame declined")
			}
		}
	})
	b.Run("lease-request-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(leaseRequestFrame)))
		for i := 0; i < b.N; i++ {
			control = append(control[:0], leaseRequestFrame...)
		}
	})
	b.Run("lease-request-decode", func(b *testing.B) {
		request := bytes.Clone(leaseRequestFrame)
		b.ReportAllocs()
		b.SetBytes(int64(len(request)))
		for i := 0; i < b.N; i++ {
			if !bytes.Equal(request, leaseRequestFrame) {
				b.Fatal("lease request declined")
			}
		}
	})
	b.Run("reference-proto-control", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(leaseFrame) + len(ackFrame)))
		for i := 0; i < b.N; i++ {
			var l proto.Lease
			var a proto.RecordsAck
			if !oneSpellingFrame(leaseFrame, proto.KindLease, &l) || !oneSpellingFrame(ackFrame, proto.KindRecordsAck, &a) {
				b.Fatal("control frames declined")
			}
		}
	})
	line := checkpointLineOf(b, sampleRecord)
	b.Run("encode", func(b *testing.B) {
		w := &CheckpointWriter{sink: io.Discard, line: make([]byte, 0, maxRecordJSON)}
		b.ReportAllocs()
		b.SetBytes(int64(len(line) + 1))
		for i := 0; i < b.N; i++ {
			if err := w.writeRecord(sampleRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode+verify", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line) + 1))
		for i := 0; i < b.N; i++ {
			_, crc, crcAt, ok := decodeRecordLine(line)
			if !ok || crcAt < 0 || lineCRC(line, crcAt) != crc {
				b.Fatal("canonical line did not verify")
			}
		}
	})
	b.Run("reference-encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line) + 1))
		for i := 0; i < b.N; i++ {
			var ref refLine
			if err := json.Unmarshal(line, &ref); err != nil {
				b.Fatal(err)
			}
			if canon, err := json.Marshal(ref.RunRecord); err != nil || crc32.ChecksumIEEE(canon) != *ref.CRC {
				b.Fatal("canonical line did not verify")
			}
		}
	})
}
