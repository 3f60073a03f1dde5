package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// zeros is an endless stream of zero bytes: the body of an oversized frame
// without holding it in memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// writeFrame writes the frame appendFrame assembles to w.
func writeFrame(w io.Writer, from string, payload []byte) error {
	frame, err := appendFrame(nil, from, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// frameHeader is appendFrame's header for a payload of the declared size.
func frameHeader(from string, size uint32) []byte {
	h := binary.BigEndian.AppendUint16(nil, uint16(len(from)))
	h = append(h, from...)
	return binary.BigEndian.AppendUint32(h, size)
}

// FuzzReadFrame holds the TCP frame reader to three properties: a frame
// appendFrame wrote reads back as the same sender and payload with nothing
// left over; arbitrary bytes never panic it, and every frame it accepts
// consumed exactly its header and payload; and a frame declaring more than
// maxFrame returns errOversized after draining its body, so the frame behind
// it still parses. What a frame consumed is what left the underlying
// reader less what the frame reader still buffers.
func FuzzReadFrame(f *testing.F) {
	f.Add("peer", []byte("hello"), []byte{0, 4, 'p', 'e', 'e', 'r', 0, 0, 0, 1, 'x'}, uint16(0))
	f.Add("", []byte{}, []byte{}, uint16(1))
	f.Add("127.0.0.1:7001", []byte{0, 1, 2, 3}, []byte{0xff, 0xff, 0, 0, 0, 0}, uint16(65535))
	f.Fuzz(func(t *testing.T, from string, payload, raw []byte, over uint16) {
		if len(from) <= math.MaxUint16 && len(payload) <= maxFrame {
			var buf bytes.Buffer
			if err := writeFrame(&buf, from, payload); err != nil {
				t.Fatal(err)
			}
			fr := newFrameReader(&buf)
			gotFrom, gotPayload, err := fr.next()
			if left := buf.Len() + fr.r.Buffered(); err != nil || gotFrom != from || !bytes.Equal(gotPayload, payload) || left != 0 {
				t.Fatalf("round trip of (%q, %x): (%q, %x), %v, %d bytes left", from, payload, gotFrom, gotPayload, err, left)
			}
		}

		r := bytes.NewReader(raw)
		fr := newFrameReader(r)
		unread := func() int { return r.Len() + fr.r.Buffered() }
		for {
			before := unread()
			gotFrom, gotPayload, err := fr.next()
			if err != nil && !errors.Is(err, errOversized) {
				break
			}
			if err == nil && before-unread() != 2+len(gotFrom)+4+len(gotPayload) {
				t.Fatalf("frame (%q, %d bytes) consumed %d bytes", gotFrom, len(gotPayload), before-unread())
			}
		}

		if len(from) > math.MaxUint16 || len(payload) > maxFrame {
			return
		}
		var next bytes.Buffer
		if err := writeFrame(&next, from, payload); err != nil {
			t.Fatal(err)
		}
		size := uint32(maxFrame) + 1 + uint32(over)
		stream := io.MultiReader(bytes.NewReader(frameHeader(from, size)),
			io.LimitReader(zeros{}, int64(size)), &next)
		sr := newFrameReader(stream)
		if _, _, err := sr.next(); !errors.Is(err, errOversized) {
			t.Fatalf("declared %d bytes: err %v, want errOversized", size, err)
		}
		gotFrom, gotPayload, err := sr.next()
		if err != nil || gotFrom != from || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame after the oversized one: (%q, %x), %v", gotFrom, gotPayload, err)
		}
	})
}

// TestWriteFrameRejectsLongSender: a sender address longer than the
// header's u16 length field is an error, not a frame whose declared length
// has wrapped around.
func TestWriteFrameRejectsLongSender(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, strings.Repeat("a", math.MaxUint16+1), nil); err == nil {
		t.Fatal("writeFrame accepted a 65 536-byte sender address")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected frame wrote %d bytes", buf.Len())
	}
}
