package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// coordTestHeartbeat keeps the fault-tolerance tests fast: leases expire
// after 5 missed 50ms heartbeats instead of the production 5x1s.
const coordTestHeartbeat = 50 * time.Millisecond

// listenLoopback binds a fresh loopback endpoint and registers its cleanup.
func listenLoopback(t *testing.T) *transport.TCPEndpoint {
	t.Helper()
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// referenceRun executes the suite single-machine and returns its serialized
// result — the byte-identity baseline every distributed test compares to.
func referenceRun(t *testing.T, suite Suite) []byte {
	t.Helper()
	res, err := Run(context.Background(), suite, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCoordinateLoopbackDeterminism is the distributed reproducibility
// contract: a coordinator with two real TCP workers racing for leases must
// produce a result byte-identical to a single-machine run of the same suite.
func TestCoordinateLoopbackDeterminism(t *testing.T) {
	suite := testSuite()
	want := referenceRun(t, suite)

	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = ConnectWorker(ctx, WorkerConfig{
				Endpoint:    listenLoopback(t),
				Coordinator: coordEP.Addr(),
				Workers:     2,
			})
		}(i)
	}

	res, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint:       coordEP,
		LeaseScenarios: 3,
		Heartbeat:      coordTestHeartbeat,
	})
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	// A worker whose Hello lost the race against the last record has
	// nothing left to join: release it instead of letting it redial.
	cancel()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, ErrDrained) && !errors.Is(werr, context.Canceled) {
			t.Errorf("worker %d: %v", i, werr)
		}
	}

	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("coordinator result differs from single-machine run:\n%s\n%s", got, want)
	}
}

// TestCoordinateDuplicateRecordsDeduped drives the wire protocol directly:
// a hand-rolled worker ships every leased record batch twice, framed
// through proto.Encode, the bytes a worker splices. First write wins — the
// duplicates count as coord.records_replayed and the merged result stays
// byte-identical to the single-machine run. In the "respelled" case each
// batch first goes out with reordered keys and whitespace: that frame is
// no Records frame, so it is counted in coord.records_rejected and never
// acked, and the proto.Encode copies still fold to the same bytes.
func TestCoordinateDuplicateRecordsDeduped(t *testing.T) {
	suite := testSuite()
	want := referenceRun(t, suite)

	// Pre-compute genuine record bytes per index with a local engine run.
	recordBytes := make(map[int]json.RawMessage)
	_, err := Run(context.Background(), suite, Config{
		Workers: 4,
		OnRecord: func(rec RunRecord) error {
			data, merr := json.Marshal(rec)
			if merr != nil {
				return merr
			}
			recordBytes[rec.Index] = data
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	for name, respelled := range map[string]bool{"proto.Encode": false, "respelled": true} {
		t.Run(name, func(t *testing.T) {
			coordEP := listenLoopback(t)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			col := telemetry.New()

			fakeDone := make(chan error, 1)
			duplicated, refused := 0, 0
			go func() {
				var stats doubleShipStats
				err := runDoubleShippingWorker(ctx, coordEP.Addr(), listenLoopback(t), suite.NumScenarios(), recordBytes, respelled, &stats)
				duplicated, refused = stats.duplicated, stats.respelled
				fakeDone <- err
			}()

			res, err := Coordinate(ctx, suite, CoordinatorConfig{
				Endpoint:       coordEP,
				LeaseScenarios: 4,
				Heartbeat:      coordTestHeartbeat,
				Telemetry:      col,
			})
			if err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			if ferr := <-fakeDone; ferr != nil {
				t.Fatalf("fake worker: %v", ferr)
			}

			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("result with duplicated batches differs from single-machine run")
			}
			s := col.Snapshot()
			total := int64(suite.NumScenarios())
			if duplicated == 0 {
				t.Fatal("fake worker duplicated no batches; test exercised nothing")
			}
			if got := s.Counter(MetricCoordRecordsReplayed); got != int64(duplicated) {
				t.Errorf("coord.records_replayed = %d, want %d (one per duplicated record)", got, duplicated)
			}
			if s.Counter(MetricCoordRecordsReceived) != total {
				t.Errorf("coord.records_received = %d, want %d", s.Counter(MetricCoordRecordsReceived), total)
			}
			if respelled && refused == 0 {
				t.Fatal("fake worker sent no respelled frame; test exercised nothing")
			}
			if got := s.Counter(MetricCoordRecordsRejected); got != int64(refused) {
				t.Errorf("coord.records_rejected = %d, want %d (one per respelled frame)", got, refused)
			}
		})
	}
}

// TestRespelledRecordsFrameRejected: a Records frame in any spelling but
// the bytes a worker splices is malformed — the lease table counts it in
// coord.records_rejected, folds none of its records and acks nothing —
// while the same batch as a worker splices it folds and is acked.
func TestRespelledRecordsFrameRejected(t *testing.T) {
	suite := testSuite().withDefaults()
	rec := RunRecord{Index: 0, Cell: 0, Metrics: sampleRecord.Metrics}
	canon, err := appendRecordsFrame(nil, 1, 0, []RunRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	raw := mustMarshal(t, rec)
	respelled, err := respellRecords(proto.Records{LeaseID: 1, Records: []json.RawMessage{raw}})
	if err != nil {
		t.Fatal(err)
	}
	reordered := bytes.Replace(canon, []byte(`"index":0,"cell":0`), []byte(`"cell":0,"index":0`), 1)
	renumbered := bytes.Replace(canon, []byte(`"Availability":0.9875`), []byte(`"Availability":0.98750`), 1)
	for name, frame := range map[string][]byte{"respelled": respelled, "reordered": reordered, "renumbered": renumbered} {
		if bytes.Equal(frame, canon) {
			t.Fatalf("%s: frame is the spliced one", name)
		}
		now := time.Unix(0, 0)
		c, err := newCoordinator(suite, CoordinatorConfig{Telemetry: telemetry.New()}, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.receive("w", frame, now); err != nil {
			t.Fatal(err)
		}
		if got := c.tm.rejected.Total(); got != 1 || c.fold.next != 0 || len(c.records) != 0 {
			t.Errorf("%s: %d rejected, frontier %d, %d records held; want 1, 0, 0", name, got, c.fold.next, len(c.records))
		}
		if sends := c.takeSends(); len(sends) != 0 {
			t.Errorf("%s: the coordinator answered %q", name, sends[0].data)
		}
		if err := c.receive("w", canon, now); err != nil {
			t.Fatal(err)
		}
		sends := c.takeSends()
		if c.fold.next != 1 || len(sends) != 1 {
			t.Fatalf("%s, then the spliced frame: frontier %d, %d sends; want 1, 1", name, c.fold.next, len(sends))
		}
		if kind, _, err := proto.Decode(sends[0].data); err != nil || kind != proto.KindRecordsAck {
			t.Errorf("%s, then the spliced frame: answered %q, want a RecordsAck", name, sends[0].data)
		}
	}
}

// TestResumedCoordinatorHoldsNoStoredRecord: a coordinator resumed from
// stored records folds them from the table as its frontier reaches them
// and never copies one into its ingest map. It folds the stored prefix at
// once, leases only the missing spans, counts a wire record of a stored
// scenario as a duplicate, and holds only ingested records past a gap.
func TestResumedCoordinatorHoldsNoStoredRecord(t *testing.T) {
	suite := testSuite()
	_, recs := collectRecords(t, suite, Shard{}, nil)
	var stored []RunRecord
	for _, rec := range recs {
		if rec.Index%4 < 2 {
			stored = append(stored, rec)
		}
	}
	now := time.Unix(0, 0)
	c, err := newCoordinator(suite, CoordinatorConfig{Completed: storedTable(len(recs), Shard{}, stored), Telemetry: telemetry.New()}, now)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, next, held, pending int) {
		t.Helper()
		if c.fold.next != next || len(c.records) != held || c.pending() != pending {
			t.Errorf("%s: frontier %d, %d records held, %d pending; want %d, %d, %d",
				when, c.fold.next, len(c.records), c.pending(), next, held, pending)
		}
	}
	check("resumed", 2, 0, len(recs)-len(stored))
	var missing []span
	for i := 2; i < len(recs); i += 4 {
		missing = append(missing, span{i, i + 2})
	}
	if fmt.Sprint(c.queue) != fmt.Sprint(missing) {
		t.Errorf("queue %v, want the missing spans %v", c.queue, missing)
	}
	for _, idx := range []int{6, 3, 1} { // past the stored 4 and 5, the gap's second scenario, stored
		if err := c.ingest(&recs[idx]); err != nil {
			t.Fatal(err)
		}
	}
	check("after 6, 3 and 1", 2, 2, len(recs)-len(stored)-2)
	if got := c.tm.dupes.Total(); got != 1 {
		t.Errorf("%d duplicates counted, want 1 (the stored scenario 1)", got)
	}
	if err := c.ingest(&recs[2]); err != nil {
		t.Fatal(err)
	}
	check("after 2", 7, 0, len(recs)-len(stored)-3)
}

// respellRecords frames a batch as another JSON encoder might: envelope
// and payload keys in reverse order, whitespace between tokens.
func respellRecords(batch proto.Records) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(`{ "payload": { "records": [ `)
	for i, raw := range batch.Records {
		if i > 0 {
			buf.WriteString(", ")
		}
		buf.Write(raw)
	}
	fmt.Fprintf(&buf, ` ], "seq": %d, "leaseId": %d }, "kind": "records" }`, batch.Seq, batch.LeaseID)
	return buf.Bytes(), nil
}

// doubleShipStats is what runDoubleShippingWorker sent: records shipped
// twice, and respelled frames.
type doubleShipStats struct {
	duplicated, respelled int
}

// runDoubleShippingWorker speaks the lease protocol by hand: handshake,
// lease, then ship the pre-computed records for the range twice through
// proto.Encode, before asking for the next lease. The batch that completes
// the suite is shipped once — the coordinator returns the moment the last
// record lands, so a duplicate of that batch would never be acknowledged.
// With respelled, each batch first goes out respelled (respellRecords) as
// a frame the coordinator must not ack: the next ack must be the
// proto.Encode copy's, which carries another batch number.
func runDoubleShippingWorker(ctx context.Context, coord string, ep transport.Endpoint, total int, records map[int]json.RawMessage,
	respelled bool, stats *doubleShipStats) error {
	send := func(kind proto.Kind, payload any) error {
		data, err := proto.Encode(kind, payload)
		if err != nil {
			return err
		}
		return ep.Send(coord, data)
	}
	recv := func(want proto.Kind) (json.RawMessage, error) {
		for {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case msg, ok := <-ep.Receive():
				if !ok {
					return nil, errors.New("endpoint closed")
				}
				k, raw, err := proto.Decode(msg.Payload)
				if err != nil {
					continue
				}
				if k == want {
					return raw, nil
				}
				if k == proto.KindWait {
					var w proto.Wait
					if proto.Unmarshal(raw, &w) == nil && w.Drain {
						return nil, nil // drained sentinel
					}
				}
			}
		}
	}

	if err := send(proto.KindHello, proto.Hello{Version: proto.Version}); err != nil {
		return err
	}
	if _, err := recv(proto.KindWelcome); err != nil {
		return err
	}
	seq := 0
	for {
		if err := send(proto.KindLeaseRequest, proto.LeaseRequest{}); err != nil {
			return err
		}
		raw, err := recv(proto.KindLease)
		if err != nil {
			return err
		}
		if raw == nil {
			return nil // drained
		}
		var lease proto.Lease
		if err := proto.Unmarshal(raw, &lease); err != nil {
			return err
		}
		batch := make([]json.RawMessage, 0, lease.End-lease.Start)
		for i := lease.Start; i < lease.End; i++ {
			batch = append(batch, records[i])
		}
		ships := 2
		if lease.End >= total {
			ships = 1 // final batch: the coordinator exits on its first copy
		}
		for ship := 0; ship < ships; ship++ {
			if respelled {
				frame, err := respellRecords(proto.Records{LeaseID: lease.ID, Seq: seq, Records: batch})
				if err != nil {
					return err
				}
				if err := ep.Send(coord, frame); err != nil {
					return err
				}
				stats.respelled++
				seq++
			}
			frame, err := proto.Encode(proto.KindRecords, proto.Records{LeaseID: lease.ID, Seq: seq, Records: batch})
			if err != nil {
				return err
			}
			if err := ep.Send(coord, frame); err != nil {
				return err
			}
			raw, err := recv(proto.KindRecordsAck)
			if err != nil {
				return err
			} else if raw == nil {
				return nil // drained mid-ack: coordinator finished
			}
			var ack proto.RecordsAck
			if err := proto.Unmarshal(raw, &ack); err != nil {
				return err
			}
			if ack.LeaseID != lease.ID || ack.Seq != seq {
				return fmt.Errorf("ack for lease %d batch %d, want lease %d batch %d (a respelled frame acked?)",
					ack.LeaseID, ack.Seq, lease.ID, seq)
			}
			if ship == 1 {
				stats.duplicated += len(batch)
			}
			seq++
		}
	}
}

// TestRunIndicesDeterminism checks the lease execution path: a suite split
// into two index ranges — the second starting off a fold-span boundary —
// each run by the executor ConnectWorker hands its leases to, and merged,
// must match the whole-suite run byte for byte.
func TestRunIndicesDeterminism(t *testing.T) {
	suite := testSuite().withDefaults()
	want := referenceRun(t, suite)
	total := suite.NumScenarios()

	records := make(map[int]RunRecord, total)
	p := newPlan(suite)
	for _, idxs := range [][]int{rangeInts(0, total/2+1), rangeInts(total/2+1, total)} {
		err := p.execute(context.Background(), idxs, Config{Workers: 3}, func(rec *RunRecord) error {
			records[rec.Index] = *rec
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := MergeRecords(suite, tableOf(records))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("split-indices merged result differs from whole-suite run")
	}
}

// TestRunIndicesValidation pins the worker's lease check, the only gate
// between the wire and the executor: empty, reversed, negative and
// out-of-range ranges are refused, every non-empty range of the suite
// passes.
func TestRunIndicesValidation(t *testing.T) {
	total := testSuite().NumScenarios()
	for _, bad := range []proto.Lease{
		{Start: 1, End: 0}, {Start: 0, End: 0}, {Start: -1, End: 2},
		{Start: 0, End: total + 1}, {Start: total, End: total + 3},
	} {
		if validLease(bad, total) {
			t.Errorf("lease [%d,%d) accepted for a %d-scenario suite", bad.Start, bad.End, total)
		}
	}
	for _, good := range []proto.Lease{{Start: 0, End: total}, {Start: total - 1, End: total}, {Start: 3, End: 4}} {
		if !validLease(good, total) {
			t.Errorf("lease [%d,%d) refused for a %d-scenario suite", good.Start, good.End, total)
		}
	}
}

// TestCoordinateResumeByteIdentical is the coordinator's crash-recovery
// contract: half the suite's records given as Completed (a prefix and a
// scattering after it), two loopback workers run the rest, and the Result
// is byte-identical to a single-machine run. OnRecord sees exactly the
// missing indices in order, and the resumed records count as replays. A
// checkpoint that already holds every record returns without serving.
func TestCoordinateResumeByteIdentical(t *testing.T) {
	suite := testSuite()
	want := referenceRun(t, suite)
	total := suite.NumScenarios()

	all := make(map[int]RunRecord, total)
	if _, err := Run(context.Background(), suite, Config{
		Workers:  4,
		OnRecord: func(rec RunRecord) error { all[rec.Index] = rec; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	completed := make(map[int]RunRecord)
	var missing []int
	for i := 0; i < total; i++ {
		if i%4 < 2 {
			completed[i] = all[i]
		} else {
			missing = append(missing, i)
		}
	}

	coordEP := listenLoopback(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ConnectWorker(ctx, WorkerConfig{
				Endpoint:    listenLoopback(t),
				Coordinator: coordEP.Addr(),
				Workers:     2,
			}); err != nil && !errors.Is(err, ErrDrained) && !errors.Is(err, context.Canceled) {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	col := telemetry.New()
	var fresh []int
	res, err := Coordinate(ctx, suite, CoordinatorConfig{
		Endpoint:       coordEP,
		LeaseScenarios: 3,
		Heartbeat:      coordTestHeartbeat,
		Completed:      tableOf(completed),
		Telemetry:      col,
		OnRecord:       func(rec RunRecord) error { fresh = append(fresh, rec.Index); return nil },
	})
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cancel() // as in TestCoordinateLoopbackDeterminism: release a late worker
	wg.Wait()
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed coordinator result differs from single-machine run:\n%s\n%s", got, want)
	}
	if fmt.Sprint(fresh) != fmt.Sprint(missing) {
		t.Errorf("OnRecord saw %v, want the missing indices %v in order", fresh, missing)
	}
	s := col.Snapshot()
	if got := s.Counter(MetricScenariosReplayed); got != int64(len(completed)) {
		t.Errorf("fleet.scenarios_replayed = %d, want %d", got, len(completed))
	}
	if got := s.Counter(MetricScenariosFolded); got != int64(total) {
		t.Errorf("fleet.scenarios_folded = %d, want %d", got, total)
	}

	stub := &stubEndpoint{}
	res, err = Coordinate(context.Background(), suite, CoordinatorConfig{
		Endpoint:  stub,
		Completed: tableOf(all),
		OnRecord:  func(rec RunRecord) error { t.Errorf("replayed record %d reached OnRecord", rec.Index); return nil },
	})
	if err != nil {
		t.Fatalf("all-complete Coordinate: %v", err)
	}
	if stub.received || stub.sent != 0 {
		t.Errorf("all-complete coordinator served (received %v, sent %d)", stub.received, stub.sent)
	}
	if got, _ := json.Marshal(res); string(got) != string(want) {
		t.Errorf("all-complete coordinator result differs from single-machine run")
	}
}

// stubEndpoint is a coordinator endpoint with no network behind it: sends
// are counted and dropped, and Receive reports that it was asked.
type stubEndpoint struct {
	sent     int
	received bool
}

func (e *stubEndpoint) Addr() string { return "stub" }
func (e *stubEndpoint) Send(string, []byte) error {
	e.sent++
	return nil
}
func (e *stubEndpoint) Close() error { return nil }
func (e *stubEndpoint) Receive() <-chan transport.Message {
	e.received = true
	return nil
}

// rangeInts returns [start, end) as a slice.
func rangeInts(start, end int) []int {
	out := make([]int, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, i)
	}
	return out
}
