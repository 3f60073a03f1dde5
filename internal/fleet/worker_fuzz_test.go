package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tolerance/internal/fleet/proto"
)

// FuzzWorkerFrames drives the worker's network parse surface — frame, the
// one place call handles a coordinator frame — with arbitrary frames. Each
// input line is one frame; its first byte picks the call waiting for it
// (handshake, lease request, or the records ack of lease 1, batch 0), the
// rest is the payload. After every frame: only a frame the waiting call's
// matcher accepts completes the call, a Wait{Drain:true} that does not
// complete it drains the session and nothing else does, a decodable stray
// fails the call once the session is drained (an undecodable one is just
// dropped), and a completed lease request never carries a lease that does
// not parse or is not a valid range of the suite.
func FuzzWorkerFrames(f *testing.F) {
	const total = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &workerSession{total: total, sendBO: newBackoff(time.Millisecond, time.Second, "fuzz")}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var lease proto.Lease
			matchers := []func(proto.Kind, json.RawMessage) bool{
				matchWelcome, matchLease(total, &lease), matchAck(1, 0),
			}
			match, payload := matchers[int(line[0])%len(matchers)], line[1:]

			// The model: decode the frame independently and ask the matcher.
			mk, mraw, derr := proto.Decode(payload)
			wantDone := derr == nil && match(mk, mraw)
			var w proto.Wait
			drainNotice := derr == nil && !wantDone && mk == proto.KindWait &&
				proto.Unmarshal(mraw, &w) == nil && w.Drain
			wantDrained := s.drained || drainNotice
			lease = proto.Lease{}

			k, raw, done, err := s.frame(payload, match)
			if done != wantDone {
				t.Fatalf("frame %q: done = %v, matcher says %v", payload, done, wantDone)
			}
			if done && (k != mk || !bytes.Equal(raw, mraw) || err != nil) {
				t.Fatalf("frame %q: completed as (%q, %q, %v), decoded as (%q, %q)", payload, k, raw, err, mk, mraw)
			}
			if s.drained != wantDrained {
				t.Fatalf("frame %q: drained = %v, want %v", payload, s.drained, wantDrained)
			}
			if !done {
				var wantErr error
				if derr == nil && s.drained {
					wantErr = errSessionDrained
				}
				if err != wantErr {
					t.Fatalf("frame %q: err = %v with drained = %v", payload, err, s.drained)
				}
			}
			if done && k == proto.KindLease {
				var got proto.Lease
				if proto.Unmarshal(raw, &got) != nil || !validLease(got, total) || got != lease {
					t.Fatalf("frame %q: returned lease %q (matcher stored %+v) is not a valid range of %d", payload, raw, lease, total)
				}
			}
		}
	})
}
