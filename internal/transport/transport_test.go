package transport

import (
	"fmt"
	"testing"
	"time"
)

func TestTCPEndpointRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Receive():
		if string(msg.Payload) != "ping" || msg.From != a.Addr() {
			t.Errorf("got %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tcp message not delivered")
	}

	// Reply over the reverse direction (fresh dial).
	if err := b.Send(a.Addr(), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-a.Receive():
		if string(msg.Payload) != "pong" {
			t.Errorf("got %q", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tcp reply not delivered")
	}
}

func TestTCPEndpointManyMessages(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	deadline := time.After(3 * time.Second)
	for received < count {
		select {
		case <-b.Receive():
			received++
		case <-deadline:
			t.Fatalf("received %d of %d", received, count)
		}
	}
}

func TestTCPEndpointSendAfterClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("127.0.0.1:1", []byte("x")); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPSendToDeadAddressFails(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Grab a port and close it so the dial fails.
	tmp, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := tmp.Addr()
	_ = tmp.Close()
	if err := a.Send(dead, []byte("x")); err == nil {
		t.Error("send to dead address should fail")
	}
}
