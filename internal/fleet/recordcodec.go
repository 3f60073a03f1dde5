package fleet

import (
	"fmt"
	"hash/crc32"
	"math"
	"strconv"

	"tolerance/internal/emulation"
	"tolerance/internal/fleet/proto"
)

// The RunRecord codec: the one place a record becomes bytes (checkpoint
// lines, Records frames, the CRC input) and bytes become a record. The
// encoder is byte-for-byte json.Marshal(RunRecord) — the format is
// unchanged — written by hand so the hot paths neither reflect nor
// allocate. The decoder accepts exactly the bytes the encoder writes, every
// number spelled as the encoder spells its value, and reports anything
// else as "not canonical": a record has one spelling, and any other is
// damage.

// The canonical key sequence. Every key is written with its leading
// separator so encode and decode walk the same table.
const (
	recKeyIndex   = `{"index":`
	recKeyCell    = `,"cell":`
	recKeyLatency = `,"ServiceLatencyMS":`
	recKeyCRC     = `,"crc":`
)

var (
	recFloatKeys = [...]string{
		`,"metrics":{"Availability":`,
		`,"QuorumAvailability":`,
		`,"TimeToRecovery":`,
		`,"RecoveryFrequency":`,
		`,"AvgNodes":`,
		`,"AvgCost":`,
	}
	recIntKeys = [...]string{
		`,"Intrusions":`,
		`,"Recoveries":`,
		`,"Evictions":`,
		`,"Additions":`,
	}
)

// recordFields lists the metric fields in key-table order.
func recordFields(m *emulation.Metrics) ([len(recFloatKeys)]*float64, [len(recIntKeys)]*int) {
	return [...]*float64{
			&m.Availability, &m.QuorumAvailability, &m.TimeToRecovery,
			&m.RecoveryFrequency, &m.AvgNodes, &m.AvgCost,
		}, [...]*int{
			&m.Intrusions, &m.Recoveries, &m.Evictions, &m.Additions,
		}
}

// maxRecordJSON bounds a record line: 204 bytes of keys and braces, six
// ints of at most 20 bytes, seven floats of at most 24, and the 19-byte crc
// member and newline a checkpoint line adds come to 511, so a buffer of
// this capacity never grows.
const maxRecordJSON = 512

// appendRecordJSON appends the canonical JSON encoding of rec — exactly
// the bytes json.Marshal(rec) produces — to dst. Like json.Marshal it
// fails on a NaN or infinite metric.
func appendRecordJSON(dst []byte, rec RunRecord) ([]byte, error) {
	floats, ints := recordFields(&rec.Metrics)
	dst = append(dst, recKeyIndex...)
	dst = strconv.AppendInt(dst, int64(rec.Index), 10)
	dst = append(dst, recKeyCell...)
	dst = strconv.AppendInt(dst, int64(rec.Cell), 10)
	var err error
	for i, key := range recFloatKeys {
		dst = append(dst, key...)
		if dst, err = appendJSONFloat(dst, *floats[i]); err != nil {
			return dst, err
		}
	}
	for i, key := range recIntKeys {
		dst = append(dst, key...)
		dst = strconv.AppendInt(dst, int64(*ints[i]), 10)
	}
	if rec.Metrics.ServiceLatencyMS != 0 { // omitempty; -0 counts as empty
		dst = append(dst, recKeyLatency...)
		if dst, err = appendJSONFloat(dst, rec.Metrics.ServiceLatencyMS); err != nil {
			return dst, err
		}
	}
	return append(dst, '}', '}'), nil
}

// appendJSONFloat formats f the way encoding/json does: shortest
// round-trip digits, 'e' form below 1e-6 and from 1e21 with a two-digit
// exponent's leading zero dropped (e-09 → e-9), "-0" for negative zero.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// closingBrace is the record's own closing brace, which the crc member
// displaced on a checkpoint line (a package variable, so lineCRC does not
// allocate one per call).
var closingBrace = []byte{'}'}

// lineCRC checksums the record bytes of a checkpoint line whose crc member
// starts at crcAt: the line up to that member, closed by the brace the
// member displaced. The per-record checksum is CRC32 (IEEE) over the
// record's canonical encoding, and a line decodeRecordLine accepts is
// canonical, so this is that checksum with no re-encoding.
func lineCRC(line []byte, crcAt int) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(line[:crcAt]), crc32.IEEETable, closingBrace)
}

// decodeRecordLine decodes one record in its canonical spelling, the
// bytes json.Marshal(rec) writes, optionally with a trailing "crc" member
// (a checkpoint line) spelled as json.Marshal spells a uint32. ok reports
// whether the input was spelled so; a line it is false for is no record.
// When it is true, rec and crc are what encoding/json would have produced,
// and crcAt is the offset of the crc member — where the record's own bytes
// end — or -1 when the line has none.
func decodeRecordLine(line []byte) (rec RunRecord, crc uint32, crcAt int, ok bool) {
	s := recScanner{b: line, ok: true}
	s.record(&rec)
	crcAt = -1
	if at := len(line) - len(s.b); s.has(recKeyCRC) {
		crcAt = at
		crc = uint32(s.uint(math.MaxUint32))
	}
	s.lit("}")
	if !s.ok || len(s.b) != 0 {
		return RunRecord{}, 0, -1, false
	}
	return rec, crc, crcAt, true
}

// The Records frame a worker ships, split where the codec's bytes go:
// recordsFrameHead, the lease ID, recordsFrameSeq, the batch number,
// recordsFrameRecords, the canonical records separated by commas, and
// recordsFrameTail. That is byte for byte what
// proto.Encode(proto.KindRecords, proto.Records{...}) writes for a
// non-empty batch of canonical records, because encoding/json copies each
// element's bytes verbatim once compacted and they have nothing to compact
// or escape.
const (
	recordsFrameHead    = `{"kind":"records","payload":{"leaseId":`
	recordsFrameSeq     = `,"seq":`
	recordsFrameRecords = `,"records":[`
	recordsFrameTail    = `]}}`
)

// appendRecordsFrameHead starts a Records frame for batch seq of lease
// leaseID; the caller appends the records with appendRecordJSON, a comma
// between two, and then recordsFrameTail.
func appendRecordsFrameHead(dst []byte, leaseID uint64, seq int) []byte {
	dst = append(dst, recordsFrameHead...)
	dst = strconv.AppendUint(dst, leaseID, 10)
	dst = append(dst, recordsFrameSeq...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	return append(dst, recordsFrameRecords...)
}

// decodeRecordsFrame decodes a Records frame of exactly the bytes a
// worker writes — at least one record, each canonical without a crc
// member — appending the records to dst. ok reports whether the frame was
// spelled so; a frame it is false for is no Records frame, and recs may
// hold a partial batch. When it is true, the lease, batch number and
// records are what proto.Decode, proto.Unmarshal and decodeRecordLine
// would have produced.
func decodeRecordsFrame(frame []byte, dst []RunRecord) (leaseID uint64, seq int, recs []RunRecord, ok bool) {
	s, recs := recScanner{b: frame, ok: true}, dst
	s.lit(recordsFrameHead)
	leaseID = s.uint(math.MaxUint64)
	s.lit(recordsFrameSeq)
	seq = s.int()
	s.lit(recordsFrameRecords)
	for s.ok {
		var rec RunRecord
		s.record(&rec)
		s.lit("}")
		recs = append(recs, rec)
		if !s.has(",") {
			break
		}
	}
	s.lit(recordsFrameTail)
	return leaseID, seq, recs, s.ok && len(s.b) == 0
}

// The lease protocol's other frames on the hot path — the lease request,
// the lease and the records ack — in the bytes proto.Encode writes for
// them: the envelope's kind and payload members in that order, the
// payload's members in field order, numbers as strconv writes them, no
// whitespace. Every peer writes them so, so their decoders accept those
// bytes only; a frame of these kinds spelled any other way is malformed.
const (
	leaseFrameHead   = `{"kind":"` + string(proto.KindLease) + `","payload":{"id":`
	leaseFrameStart  = `,"start":`
	leaseFrameEnd    = `,"end":`
	ackFrameHead     = `{"kind":"` + string(proto.KindRecordsAck) + `","payload":{"leaseId":`
	ackFrameSeq      = `,"seq":`
	controlFrameTail = `}}`

	// maxControlFrame bounds a lease or records-ack frame: the longest
	// head, three numbers of at most 20 bytes, the separators and the tail.
	maxControlFrame = len(ackFrameHead) + len(leaseFrameStart) + len(leaseFrameEnd) + 3*20 + len(controlFrameTail)
)

// leaseRequestFrame is the one spelling of a LeaseRequest frame.
var leaseRequestFrame = []byte(`{"kind":"` + string(proto.KindLeaseRequest) + `","payload":{}}`)

// appendLeaseFrame appends the Lease frame granting l.
func appendLeaseFrame(dst []byte, l proto.Lease) []byte {
	dst = append(dst, leaseFrameHead...)
	dst = strconv.AppendUint(dst, l.ID, 10)
	dst = append(dst, leaseFrameStart...)
	dst = strconv.AppendInt(dst, int64(l.Start), 10)
	dst = append(dst, leaseFrameEnd...)
	dst = strconv.AppendInt(dst, int64(l.End), 10)
	return append(dst, controlFrameTail...)
}

// decodeLeaseFrame decodes a Lease frame in its one spelling; ok reports
// whether frame was one.
func decodeLeaseFrame(frame []byte) (l proto.Lease, ok bool) {
	s := recScanner{b: frame, ok: true}
	s.lit(leaseFrameHead)
	l.ID = s.uint(math.MaxUint64)
	s.lit(leaseFrameStart)
	l.Start = s.int()
	s.lit(leaseFrameEnd)
	l.End = s.int()
	s.lit(controlFrameTail)
	if !s.ok || len(s.b) != 0 {
		return proto.Lease{}, false
	}
	return l, true
}

// appendRecordsAckFrame appends the RecordsAck frame acknowledging ack.
func appendRecordsAckFrame(dst []byte, ack proto.RecordsAck) []byte {
	dst = append(dst, ackFrameHead...)
	dst = strconv.AppendUint(dst, ack.LeaseID, 10)
	dst = append(dst, ackFrameSeq...)
	dst = strconv.AppendInt(dst, int64(ack.Seq), 10)
	return append(dst, controlFrameTail...)
}

// decodeRecordsAckFrame decodes a RecordsAck frame in its one spelling;
// ok reports whether frame was one.
func decodeRecordsAckFrame(frame []byte) (ack proto.RecordsAck, ok bool) {
	s := recScanner{b: frame, ok: true}
	s.lit(ackFrameHead)
	ack.LeaseID = s.uint(math.MaxUint64)
	s.lit(ackFrameSeq)
	ack.Seq = s.int()
	s.lit(controlFrameTail)
	if !s.ok || len(s.b) != 0 {
		return proto.RecordsAck{}, false
	}
	return ack, true
}

// record consumes a canonical record up to the closing brace of its
// metrics object; what may follow — a crc member, the record's own closing
// brace — is the caller's to read.
func (s *recScanner) record(rec *RunRecord) {
	floats, ints := recordFields(&rec.Metrics)
	s.lit(recKeyIndex)
	rec.Index = s.int()
	s.lit(recKeyCell)
	rec.Cell = s.int()
	for i, key := range recFloatKeys {
		s.lit(key)
		*floats[i] = s.float()
	}
	for i, key := range recIntKeys {
		s.lit(key)
		*ints[i] = s.int()
	}
	if s.has(recKeyLatency) {
		rec.Metrics.ServiceLatencyMS = s.float()
		if rec.Metrics.ServiceLatencyMS == 0 { // the encoder omits ±0
			s.ok = false
		}
	}
	s.lit("}")
}

// recScanner consumes a canonical record from the front of b. A mismatch
// clears ok and every later step is a no-op, so the decoder reads as
// straight-line code with one check at the end.
type recScanner struct {
	b  []byte
	ok bool
}

// has consumes the literal if b starts with it.
func (s *recScanner) has(lit string) bool {
	if !s.ok || len(s.b) < len(lit) || string(s.b[:len(lit)]) != lit {
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// lit requires the literal.
func (s *recScanner) lit(lit string) {
	if !s.has(lit) {
		s.ok = false
	}
}

// digitRun returns the number of leading ASCII digits of b.
func digitRun(b []byte) int {
	n := 0
	for n < len(b) && b[n]-'0' <= 9 {
		n++
	}
	return n
}

// intPart returns the length of the JSON integer part at the front of b —
// "0", or a nonzero digit followed by digits — or 0 if there is none. A
// leading zero ends the part, so "01" fails at whatever must follow.
func intPart(b []byte) int {
	n := digitRun(b)
	if n > 1 && b[0] == '0' {
		return 1
	}
	return n
}

// uint consumes a JSON integer without sign, fraction or exponent, of at
// most limit.
func (s *recScanner) uint(limit uint64) uint64 {
	n := intPart(s.b)
	if !s.ok || n == 0 || n > 20 {
		s.ok = false
		return 0
	}
	var v uint64
	for i, c := range s.b[:n] {
		d := uint64(c - '0')
		if i == 19 && v > (math.MaxUint64-d)/10 { // 19 digits always fit; a 20th may not
			s.ok = false
			return 0
		}
		v = v*10 + d
	}
	if v > limit {
		s.ok = false
		return 0
	}
	s.b = s.b[n:]
	return v
}

// int consumes a JSON integer in int's range, so everything the encoder
// writes decodes; "-0" is not the encoder's.
func (s *recScanner) int() int {
	neg := s.has("-")
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	v := s.uint(limit)
	if neg && v == 0 {
		s.ok = false
	}
	if neg {
		return int(-int64(v))
	}
	return int(v)
}

// float consumes a number in the strict JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it with
// strconv.ParseFloat, as encoding/json does; a value out of range, or a
// spelling other than appendJSONFloat's for the value, is not canonical.
func (s *recScanner) float() float64 {
	if !s.ok {
		return 0
	}
	b, n := s.b, 0
	if len(b) > 0 && b[0] == '-' {
		n = 1
	}
	d := intPart(b[n:])
	n += d
	if d > 0 && n < len(b) && b[n] == '.' {
		d = digitRun(b[n+1:])
		n += 1 + d
	}
	if d > 0 && n < len(b) && b[n]|0x20 == 'e' {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		d = digitRun(b[n:])
		n += d
	}
	if d == 0 { // a part of the grammar that needs digits had none
		s.ok = false
		return 0
	}
	num := b[:n]
	s.b = b[n:]
	f, err := strconv.ParseFloat(string(num), 64)
	var buf [32]byte
	if canon, _ := appendJSONFloat(buf[:0], f); err != nil || string(canon) != string(num) {
		s.ok = false
	}
	return f
}
