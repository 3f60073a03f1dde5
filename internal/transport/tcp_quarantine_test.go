package transport

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// TestOversizedFrameIsQuarantinedNotFatal sends an oversized frame down a
// raw connection and checks that (a) it never surfaces on Receive, (b) the
// quarantine counter ticks, and (c) a well-formed frame on the SAME
// connection still gets through — the whole point of quarantining instead
// of closing: one malformed frame must not sever a link that heartbeats
// and acks share.
func TestOversizedFrameIsQuarantinedNotFatal(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Hand-build a frame declaring a payload just over the cap. The body
	// must actually be on the wire for the reader to drain past it.
	const over = maxFrame + 1
	from := "attacker"
	header := make([]byte, 2+len(from)+4)
	binary.BigEndian.PutUint16(header[:2], uint16(len(from)))
	copy(header[2:], from)
	binary.BigEndian.PutUint32(header[2+len(from):], uint32(over))
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1<<20)
	for written := 0; written < over; {
		n := len(junk)
		if over-written < n {
			n = over - written
		}
		if _, err := conn.Write(junk[:n]); err != nil {
			t.Fatal(err)
		}
		written += n
	}

	// A legitimate frame behind the oversized one must still be delivered.
	if err := writeFrame(conn, "peer", []byte("still alive")); err != nil {
		t.Fatal(err)
	}

	select {
	case msg := <-ep.Receive():
		if string(msg.Payload) != "still alive" || msg.From != "peer" {
			t.Fatalf("unexpected message %q from %q", msg.Payload, msg.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame after the oversized one never arrived — connection was torn down")
	}
	if got := ep.QuarantinedFrames(); got != 1 {
		t.Fatalf("QuarantinedFrames = %d, want 1", got)
	}
}

// TestInboxOverflowIsCounted: a receiver that does not drain Receive loses
// the frames that arrive once its inbox is full — that has always been so —
// and every one of them now shows in DroppedFrames.
func TestInboxOverflowIsCounted(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const extra = 7
	for i := 0; i < cap(ep.ch)+extra; i++ {
		if err := writeFrame(conn, "peer", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.DroppedFrames() < extra && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ep.DroppedFrames(); got != extra {
		t.Fatalf("DroppedFrames = %d, want %d", got, extra)
	}
	if got := len(ep.Receive()); got != cap(ep.ch) {
		t.Errorf("inbox holds %d frames, want %d", got, cap(ep.ch))
	}
	if got := ep.QuarantinedFrames(); got != 0 {
		t.Errorf("QuarantinedFrames = %d, want 0", got)
	}
}
