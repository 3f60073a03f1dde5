package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tolerance/internal/fleet/proto"
)

// appendRecordsFrame writes a Records frame the way a worker does: the
// head, the canonical records separated by commas, the tail.
func appendRecordsFrame(dst []byte, leaseID uint64, seq int, recs []RunRecord) ([]byte, error) {
	dst = appendRecordsFrameHead(dst, leaseID, seq)
	for i, rec := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendRecordJSON(dst, rec); err != nil {
			return dst, err
		}
	}
	return append(dst, recordsFrameTail...), nil
}

// recordsFrameOf is the reference writer: proto.Encode over records that
// encoding/json encoded.
func recordsFrameOf(leaseID uint64, seq int, recs []RunRecord) ([]byte, error) {
	raws := make([]json.RawMessage, len(recs))
	for i, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		raws[i] = raw
	}
	return proto.Encode(proto.KindRecords, proto.Records{LeaseID: leaseID, Seq: seq, Records: raws})
}

// decodeRecordsFrameReference is the one-spelling rule for a Records
// frame, in encoding/json alone: proto.Decode and proto.Unmarshal decode a
// batch of at least one record, each record is one json.Marshal writes
// back byte for byte (oneSpelling), and proto.Encode writes the frame back
// byte for byte. ok is false if any of them refuses.
func decodeRecordsFrameReference(frame []byte) (leaseID uint64, seq int, recs []RunRecord, ok bool) {
	kind, payload, err := proto.Decode(frame)
	if err != nil || kind != proto.KindRecords {
		return 0, 0, nil, false
	}
	var batch proto.Records
	if proto.Unmarshal(payload, &batch) != nil || len(batch.Records) == 0 {
		return 0, 0, nil, false
	}
	for _, raw := range batch.Records {
		var rec RunRecord
		if !oneSpelling(raw, &rec) {
			return 0, 0, nil, false
		}
		recs = append(recs, rec)
	}
	again, err := proto.Encode(proto.KindRecords, batch)
	if err != nil || !bytes.Equal(again, frame) {
		return 0, 0, nil, false
	}
	return batch.LeaseID, batch.Seq, recs, true
}

// oneSpellingFrame is the one-spelling rule for a frame of kind, in
// encoding/json alone: proto.Decode reads kind, proto.Unmarshal decodes the
// payload into v, and proto.Encode of what it decoded writes the frame
// back byte for byte.
func oneSpellingFrame(frame []byte, kind proto.Kind, v any) bool {
	got, payload, err := proto.Decode(frame)
	if err != nil || got != kind || proto.Unmarshal(payload, v) != nil {
		return false
	}
	back, err := proto.Encode(kind, v)
	return err == nil && bytes.Equal(back, frame)
}

// checkRecordsFrame asserts the frame codec on arbitrary bytes: the fast
// path claims a frame exactly when the reference does, decodes it to the
// same lease, batch number and records, and splicing those back writes
// exactly what proto.Encode writes.
func checkRecordsFrame(t *testing.T, frame []byte) {
	t.Helper()
	leaseID, seq, recs, ok := decodeRecordsFrame(frame, nil)
	wantLease, wantSeq, wantRecs, wantOK := decodeRecordsFrameReference(frame)
	if ok != wantOK {
		t.Fatalf("%q: fast path ok = %v, reference %v", frame, ok, wantOK)
	}
	if !ok {
		return
	}
	if leaseID != wantLease || seq != wantSeq || len(recs) != len(wantRecs) {
		t.Fatalf("%q: fast path (%d, %d, %d records), reference (%d, %d, %d records)",
			frame, leaseID, seq, len(recs), wantLease, wantSeq, len(wantRecs))
	}
	for i := range recs {
		if !sameRecord(recs[i], wantRecs[i]) {
			t.Fatalf("%q record %d: fast path %+v, reference %+v", frame, i, recs[i], wantRecs[i])
		}
	}
	got, err := appendRecordsFrame(nil, leaseID, seq, recs)
	want, wantErr := recordsFrameOf(leaseID, seq, recs)
	if err != nil || wantErr != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-encoding %q:\n spliced %s (%v)\n  proto  %s (%v)", frame, got, err, want, wantErr)
	}
}

// recordsFrameBatches are batches over the codec's number cases: every
// finite float in every float field and as ServiceLatencyMS (±0 omits
// it), and the int extremes in every int field.
func recordsFrameBatches() [][]RunRecord {
	batches := [][]RunRecord{{sampleRecord}, {{}}}
	for _, f := range codecFloats {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		var batch []RunRecord
		rec := sampleRecord
		floats, _ := recordFields(&rec.Metrics)
		for i := range floats {
			*floats[i] = f
			rec.Index = i
			batch = append(batch, rec)
			*floats[i] = 0.25
		}
		rec.Metrics.ServiceLatencyMS = f
		batches = append(batches, append(batch, rec))
	}
	var ints []RunRecord
	for _, n := range codecInts {
		rec := sampleRecord
		rec.Index, rec.Cell = n, -n
		_, fields := recordFields(&rec.Metrics)
		for i := range fields {
			*fields[i] = n
		}
		ints = append(ints, rec)
	}
	return append(batches, ints)
}

// nearMissRecordsFrames are valid and invalid Records frames one step
// from the spliced bytes; the fast path must decline every one.
func nearMissRecordsFrames(t testing.TB) [][]byte {
	rec := string(mustMarshal(t, sampleRecord))
	canon := `{"kind":"records","payload":{"leaseId":7,"seq":3,"records":[` + rec + "," + rec + `]}}`
	with := func(old, new string) []byte {
		if !strings.Contains(canon, old) {
			t.Fatalf("canonical frame has no %q", old)
		}
		return []byte(strings.Replace(canon, old, new, 1))
	}
	return [][]byte{
		[]byte(canon[:len(canon)-40]),                      // a truncated record
		with(`[`+rec+","+rec+`]`, `[]`),                    // an empty batch
		[]byte(canon + "x"),                                // a trailing byte
		[]byte(canon + " "),                                // trailing whitespace
		with(`"Additions":2}}`, `"Additions":2},"crc":1}`), // a crc member
		with(`"leaseId":7,"seq":3`, `"seq":3,"leaseId":7`), // reordered payload keys
		[]byte(`{"payload":{"leaseId":7,"seq":3,"records":[` + rec + `]},"kind":"records"}`), // reordered envelope
		with(`,"seq":`, `, "seq": `),                          // whitespace
		with(`{"index":`, "{ \"index\":"),                     // whitespace inside a record
		with(rec+","+rec, rec+","),                            // a trailing comma
		with(`]}}`, `],"extra":1}}`),                          // an unknown member
		with(`"leaseId":7`, `"leaseId":18446744073709551616`), // lease out of range
		with(`"leaseId":7`, `"leaseId":-1`),
		with(`"leaseId":7`, `"leaseId":07`),
		with(`"seq":3`, `"seq":9223372036854775808`), // seq out of range
		with(`"seq":3`, `"seq":3.0`),
		with(`"seq":3`, `"seq":-0`),
		with(`"Availability":0.9875`, `"Availability":0.98750`), // a respelled number
		with(`"kind":"records"`, `"kind":"heartbeat"`),
		with(`"kind":"records"`, `"kind":"Records"`),
		nil,
	}
}

// TestRecordsFrameMatchesProto: the frame a worker splices is
// proto.Encode's byte for byte, for every lease ID and batch number and
// every number the record codec formats; the coordinator's fast path
// decodes it to what the reference does, and declines every near miss
// as the reference does.
func TestRecordsFrameMatchesProto(t *testing.T) {
	for _, leaseID := range []uint64{0, 1, 1 << 40, math.MaxUint64} {
		for _, seq := range []int{0, 1, 63, math.MaxInt} {
			for _, batch := range recordsFrameBatches() {
				got, err := appendRecordsFrame(nil, leaseID, seq, batch)
				want, wantErr := recordsFrameOf(leaseID, seq, batch)
				if err != nil || wantErr != nil || !bytes.Equal(got, want) {
					t.Fatalf("spliced frame:\n got %s (%v)\nwant %s (%v)", got, err, want, wantErr)
				}
				if _, _, _, ok := decodeRecordsFrame(got, nil); !ok {
					t.Fatalf("spliced frame %s declined", got)
				}
				checkRecordsFrame(t, got)
			}
		}
	}
	// A record encoding/json refuses fails the splice too.
	bad := sampleRecord
	bad.Metrics.AvgCost = math.NaN()
	if _, err := appendRecordsFrame(nil, 1, 0, []RunRecord{sampleRecord, bad}); err == nil {
		t.Error("spliced a NaN metric")
	}
	for _, frame := range nearMissRecordsFrames(t) {
		if _, _, _, ok := decodeRecordsFrame(frame, nil); ok {
			t.Errorf("fast path accepted the near miss %s", frame)
		}
		checkRecordsFrame(t, frame)
	}
}

// TestRecordsFrameZeroAllocs pins both ends of a worker batch at zero
// allocations once their buffers are warm: splicing the frame and decoding
// it on the coordinator.
func TestRecordsFrameZeroAllocs(t *testing.T) {
	batch := []RunRecord{sampleRecord, sampleRecord, sampleRecord}
	frame, err := appendRecordsFrame(nil, 1, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(frame))
	if n := testing.AllocsPerRun(200, func() {
		if buf, err = appendRecordsFrame(buf[:0], 1, 0, batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("splicing a Records frame: %v allocs, want 0", n)
	}
	recs := make([]RunRecord, 0, len(batch))
	if n := testing.AllocsPerRun(200, func() {
		var ok bool
		if _, _, recs, ok = decodeRecordsFrame(frame, recs[:0]); !ok {
			t.Fatal("spliced frame declined")
		}
	}); n != 0 {
		t.Errorf("decoding a Records frame: %v allocs, want 0", n)
	}
}

// controlFrameNumbers are the lease IDs and ints the control frames carry
// at their extremes.
var (
	controlFrameIDs  = []uint64{0, 1, 7, 1 << 40, math.MaxUint64}
	controlFrameInts = []int{0, 1, -2, 63, math.MaxInt, math.MinInt}
)

// nearMissControlFrames are frames one step from the codec's spellings of
// a lease, a records ack and a lease request; the one-spelling rule
// declines every one.
func nearMissControlFrames(t testing.TB) [][]byte {
	lease := `{"kind":"lease","payload":{"id":7,"start":3,"end":9}}`
	ack := `{"kind":"records-ack","payload":{"leaseId":7,"seq":3}}`
	with := func(canon, old, new string) []byte {
		if !strings.Contains(canon, old) {
			t.Fatalf("%s has no %q", canon, old)
		}
		return []byte(strings.Replace(canon, old, new, 1))
	}
	return [][]byte{
		[]byte(lease[:len(lease)-1]), // truncated
		[]byte(lease + " "),          // trailing whitespace
		with(lease, `"id":7`, `"id":07`),
		with(lease, `"id":7`, `"id":-7`),
		with(lease, `"id":7`, `"id":18446744073709551616`),
		with(lease, `"start":3`, `"start":3.0`),
		with(lease, `"start":3`, `"start":-0`),
		with(lease, `"start":3`, `"start":3e0`),
		with(lease, `"end":9`, `"end":9223372036854775808`),
		with(lease, `"end":9`, `"end":"9"`),
		with(lease, `"id":7,"start":3`, `"start":3,"id":7`), // reordered members
		with(lease, `,"end":9`, ``),                         // a missing member
		with(lease, `}}`, `,"extra":1}}`),                   // an unknown member
		with(lease, `,"payload":{"id":7,"start":3,"end":9}`, ``),
		with(lease, `"payload":{"id":7,"start":3,"end":9}`, `"payload":null`),
		with(lease, `"kind":"lease"`, `"kind":"Lease"`),
		with(lease, `{"kind":"lease",`, `{"kind": "lease",`),
		[]byte(`{"payload":{"id":7,"start":3,"end":9},"kind":"lease"}`),
		with(ack, `"leaseId":7`, `"leaseId":007`),
		with(ack, `"seq":3`, `"seq":+3`),
		with(ack, `"seq":3`, `"seq":3,"seq":3`),
		with(ack, `"leaseId":7`, `"leaseid":7`),
		with(ack, `,"payload":{"leaseId":7,"seq":3}`, ``),
		with(ack, `"kind":"records-ack"`, `"kind":"lease"`),
		[]byte(`{"kind":"lease-request"}`),
		[]byte(`{"kind":"lease-request","payload":null}`),
		[]byte(`{"kind":"lease-request","payload":{"x":1}}`),
		[]byte(`{"kind":"lease-request","payload":{} }`),
		[]byte(`{"kind":"lease-request","payload":[]}`),
		nil,
	}
}

// checkControlFrame asserts the control-frame decoders on arbitrary bytes:
// each claims a frame exactly when the one-spelling rule does for its kind
// and decodes it to what encoding/json does.
func checkControlFrame(t *testing.T, frame []byte) {
	t.Helper()
	var wantLease proto.Lease
	lease, ok := decodeLeaseFrame(frame)
	if wantOK := oneSpellingFrame(frame, proto.KindLease, &wantLease); ok != wantOK || ok && lease != wantLease {
		t.Fatalf("%q: lease decoder (%+v, %v), reference (%+v, %v)", frame, lease, ok, wantLease, wantOK)
	}
	var wantAck proto.RecordsAck
	ack, ok := decodeRecordsAckFrame(frame)
	if wantOK := oneSpellingFrame(frame, proto.KindRecordsAck, &wantAck); ok != wantOK || ok && ack != wantAck {
		t.Fatalf("%q: ack decoder (%+v, %v), reference (%+v, %v)", frame, ack, ok, wantAck, wantOK)
	}
	ok = bytes.Equal(frame, leaseRequestFrame)
	if wantOK := oneSpellingFrame(frame, proto.KindLeaseRequest, &proto.LeaseRequest{}); ok != wantOK {
		t.Fatalf("%q: lease request %v, reference %v", frame, ok, wantOK)
	}
}

// TestControlFramesMatchProto: the lease, records-ack and lease-request
// frames the codec writes are proto.Encode's byte for byte at every
// extreme of their numbers, its decoders read them back, and they decline
// every near miss as the one-spelling rule does.
func TestControlFramesMatchProto(t *testing.T) {
	check := func(got []byte, kind proto.Kind, v any) {
		t.Helper()
		want, err := proto.Encode(kind, v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s frame:\n got %s\nwant %s (%v)", kind, got, want, err)
		}
		if len(got) > maxControlFrame {
			t.Fatalf("%s frame of %d bytes exceeds maxControlFrame %d", kind, len(got), maxControlFrame)
		}
		checkControlFrame(t, got)
	}
	check(leaseRequestFrame, proto.KindLeaseRequest, proto.LeaseRequest{})
	for _, id := range controlFrameIDs {
		for _, a := range controlFrameInts {
			ack := proto.RecordsAck{LeaseID: id, Seq: a}
			check(appendRecordsAckFrame(nil, ack), proto.KindRecordsAck, ack)
			for _, b := range controlFrameInts {
				l := proto.Lease{ID: id, Start: a, End: b}
				check(appendLeaseFrame(nil, l), proto.KindLease, l)
			}
		}
	}
	for _, frame := range nearMissControlFrames(t) {
		checkControlFrame(t, frame)
		if _, ok := decodeLeaseFrame(frame); ok {
			t.Errorf("the lease decoder accepted the near miss %s", frame)
		}
		if _, ok := decodeRecordsAckFrame(frame); ok {
			t.Errorf("the ack decoder accepted the near miss %s", frame)
		}
	}
}

// TestControlFramesZeroAllocs: writing a lease or records-ack frame into a
// warm buffer and decoding one allocate nothing.
func TestControlFramesZeroAllocs(t *testing.T) {
	l := proto.Lease{ID: 1 << 40, Start: 24000, End: 24256}
	ack := proto.RecordsAck{LeaseID: 1 << 40, Seq: 3}
	leaseFrame, ackFrame := appendLeaseFrame(nil, l), appendRecordsAckFrame(nil, ack)
	buf := make([]byte, 0, maxControlFrame)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendLeaseFrame(buf[:0], l)
		buf = appendRecordsAckFrame(buf[:0], ack)
		if got, ok := decodeLeaseFrame(leaseFrame); !ok || got != l {
			t.Fatal("lease frame declined")
		}
		if got, ok := decodeRecordsAckFrame(ackFrame); !ok || got != ack {
			t.Fatal("ack frame declined")
		}
	}); n != 0 {
		t.Errorf("writing and decoding control frames: %v allocs, want 0", n)
	}
}

// FuzzRecordsFrame mutates spliced frames — seeded with every number case
// of the record codec, lease IDs up to MaxUint64 and batch numbers from 0
// — and the near misses. The fast path must accept exactly the frames the
// reference accepts and decode them as it does, and their records must
// splice back to proto.Encode's bytes, so each record value the mutator
// reaches is checked in both directions.
func FuzzRecordsFrame(f *testing.F) {
	for i, batch := range recordsFrameBatches() {
		for _, leaseID := range []uint64{uint64(i), math.MaxUint64 - uint64(i)} {
			frame, err := appendRecordsFrame(nil, leaseID, i, batch)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	for _, frame := range nearMissRecordsFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(checkRecordsFrame)
}
