package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
)

// FuzzCoordinatorFrames drives the lease table's network parse surface —
// envelope, payloads and wire records — with arbitrary frames, straight
// into the machine. Each input line is one frame: its first byte picks one
// of three senders, the rest is the payload handed to receive, and a tick
// follows it a quarter second later. After every frame the frontier must
// not have moved back, every index must have folded exactly once and in
// order, the records kept ahead of the frontier must fit in the suite, and
// the reject and duplicate counters must equal what an encoding/json model
// of the same frames predicts: a Records frame is one only in the
// one-spelling rule's bytes (decodeRecordsFrameReference), and so is a
// LeaseRequest (oneSpellingFrame).
func FuzzCoordinatorFrames(f *testing.F) {
	suite := testSuite().withDefaults()
	total := suite.NumScenarios()
	f.Fuzz(func(t *testing.T, data []byte) {
		col := telemetry.New()
		var folded []int
		now := time.Unix(0, 0)
		c, err := newCoordinator(suite, CoordinatorConfig{
			Telemetry: col,
			OnRecord:  func(rec RunRecord) error { folded = append(folded, rec.Index); return nil },
		}, now)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		var rejects, dupes int64
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			frame := line[1:]
			r, d := modelFrame(frame, total, suite.SeedsPerCell, seen)
			rejects, dupes = rejects+r, dupes+d

			before := c.fold.next
			if err := c.receive(fmt.Sprintf("w%d", line[0]%3), frame, now); err != nil {
				t.Fatalf("receive: %v", err)
			}
			now = now.Add(DefaultHeartbeat / 4)
			c.tick(now)
			if c.fold.next < before {
				t.Fatalf("frontier moved back from %d to %d", before, c.fold.next)
			}
			if c.fold.next+len(c.records) > total {
				t.Fatalf("frontier %d + %d records ahead exceeds %d scenarios", c.fold.next, len(c.records), total)
			}
			if len(folded) != c.fold.next {
				t.Fatalf("%d records folded, frontier at %d", len(folded), c.fold.next)
			}
			for i := before; i < len(folded); i++ {
				if folded[i] != i {
					t.Fatalf("position %d folded scenario %d", i, folded[i])
				}
			}
			if got := c.tm.rejected.Total(); got != rejects {
				t.Fatalf("coord.records_rejected = %d, model says %d", got, rejects)
			}
			if got := c.tm.dupes.Total(); got != dupes {
				t.Fatalf("coord.records_replayed = %d, model says %d", got, dupes)
			}
			if c.done() {
				return // Coordinate stops reading here
			}
		}
	})
}

// modelFrame predicts how many rejects and duplicates the coordinator must
// count for one frame, decoding it with encoding/json alone; seen tracks
// the indices already accepted. A Records or LeaseRequest frame in any
// spelling but the one json.Marshal writes is one reject, like any
// malformed frame.
func modelFrame(frame []byte, total, seedsPerCell int, seen map[int]bool) (rejects, dupes int64) {
	kind, payload, err := proto.Decode(frame)
	if err != nil {
		return 1, 0
	}
	switch kind {
	case proto.KindHello:
		var h proto.Hello
		if proto.Unmarshal(payload, &h) != nil || h.Version != proto.Version {
			return 1, 0
		}
	case proto.KindHeartbeat:
		var hb proto.Heartbeat
		if proto.Unmarshal(payload, &hb) != nil {
			return 1, 0
		}
	case proto.KindLeaseRequest:
		if !oneSpellingFrame(frame, kind, &proto.LeaseRequest{}) {
			return 1, 0
		}
	case proto.KindGoodbye:
	case proto.KindRecords:
		_, _, recs, ok := decodeRecordsFrameReference(frame)
		if !ok {
			return 1, 0
		}
		for _, rec := range recs {
			switch {
			case rec.Index < 0 || rec.Index >= total || rec.Cell != rec.Index/seedsPerCell:
				rejects++
			case seen[rec.Index]:
				dupes++
			default:
				seen[rec.Index] = true
			}
		}
	default:
		return 1, 0
	}
	return rejects, dupes
}
