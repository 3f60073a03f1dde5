package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"
)

// countingConn is a net.Conn that records every Write and accepts
// everything else.
type countingConn struct {
	net.Conn
	writes [][]byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }
func (c *countingConn) Close() error                     { return nil }

// framePayloads are payloads of the sizes a fleet sends: empty, an ack, a
// Records batch larger than the read buffer, and one too large for a
// connection to keep its frame buffer.
func framePayloads() [][]byte {
	sizes := []int{0, 1, 57, 4095, 4096, 21 << 10, maxRetainedFrame + 1, 3}
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = make([]byte, n)
		for j := range out[i] {
			out[i][j] = byte(i*31 + j)
		}
	}
	return out
}

// TestSendWritesOneFramePerWrite: Send hands the connection each frame —
// header and payload — in one Write, so with TCP_NODELAY a frame leaves as
// one segment, not two.
func TestSendWritesOneFramePerWrite(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn := &countingConn{}
	ep.conns["peer"] = &lockedConn{conn: conn}

	payloads := framePayloads()
	for _, p := range payloads {
		if err := ep.Send("peer", p); err != nil {
			t.Fatal(err)
		}
	}
	if len(conn.writes) != len(payloads) {
		t.Fatalf("%d frames took %d Writes, want one each", len(payloads), len(conn.writes))
	}
	for i, p := range payloads {
		want, err := appendFrame(nil, ep.Addr(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conn.writes[i], want) {
			t.Errorf("frame %d (%d bytes): Write of %d bytes is not the frame", i, len(p), len(conn.writes[i]))
		}
	}
}

// TestReadFrameAllocatesOnlyPayloads: a connection's frames from one
// sender allocate their payloads and nothing else — no header, no sender
// string — once its first frame has named the sender.
func TestReadFrameAllocatesOnlyPayloads(t *testing.T) {
	const perRun, runs = 16, 4
	var stream []byte
	for i := 0; i < 1+perRun*(runs+1); i++ {
		var err error
		if stream, err = appendFrame(stream, "127.0.0.1:7001", bytes.Repeat([]byte{byte(i)}, 1+i%9*1000)); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(bytes.NewReader(stream))
	if _, _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			if from, _, err := fr.next(); err != nil || from != "127.0.0.1:7001" {
				t.Fatalf("frame from %q: %v", from, err)
			}
		}
	})
	if allocs != perRun {
		t.Errorf("%d frames allocate %v times, want %d: their payloads", perRun, allocs, perRun)
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameOneBytePerRead: frames that arrive a byte at a time — the
// sender changing between them, one oversized frame among them — decode
// as they do in one piece, and the stream's end inside a frame is
// io.ErrUnexpectedEOF.
func TestReadFrameOneBytePerRead(t *testing.T) {
	type frame struct {
		from    string
		payload []byte
	}
	var want []frame
	var stream []byte
	for i, p := range framePayloads()[:6] {
		from := []string{"a:1", "a:1", "127.0.0.1:40000", "", "a:1", "a:1"}[i]
		want = append(want, frame{from, p})
		var err error
		if stream, err = appendFrame(stream, from, p); err != nil {
			t.Fatal(err)
		}
	}
	oversized := frameHeader("x", maxFrame+1)
	for _, b := range [][]byte{oversized, make([]byte, maxFrame+1)} {
		stream = append(stream, b...)
	}
	last, err := appendFrame(nil, "b:2", []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, last...)
	want = append(want, frame{"b:2", []byte("after")})

	fr := newFrameReader(iotest.OneByteReader(bytes.NewReader(stream)))
	for i, w := range want {
		from, payload, err := fr.next()
		if i == len(want)-1 && errors.Is(err, errOversized) {
			from, payload, err = fr.next()
		}
		if err != nil || from != w.from || !bytes.Equal(payload, w.payload) {
			t.Fatalf("frame %d: (%q, %d bytes), %v; want (%q, %d bytes)", i, from, len(payload), err, w.from, len(w.payload))
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}

	torn := newFrameReader(iotest.OneByteReader(bytes.NewReader(last[:len(last)-1])))
	if _, _, err := torn.next(); err != io.ErrUnexpectedEOF {
		t.Errorf("a frame cut short: %v, want io.ErrUnexpectedEOF", err)
	}
}
