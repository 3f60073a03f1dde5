package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestSendWriteTimeoutOnStuckReceiver models the stuck-replica failure the
// deadlines exist for: the peer accepts the connection but never reads, so
// the sender's frames pile up in the socket buffers until a write blocks.
// The write deadline must fail the Send with ErrTimeout (naming the peer in
// the diagnostic) instead of stalling the caller forever.
func TestSendWriteTimeoutOnStuckReceiver(t *testing.T) {
	// A raw listener that accepts and then ignores the connection — not a
	// TCPEndpoint, whose readLoop would drain the frames.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 4)
	go func() {
		defer close(accepted) // by the sender, once Accept has failed
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c // held open, never read
		}
	}()
	defer func() {
		l.Close() // ends the accept loop; the range below waits for it
		for c := range accepted {
			c.Close()
		}
	}()

	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.WriteTimeout = 200 * time.Millisecond

	// 1 MiB frames overwhelm the kernel buffers within a few sends.
	payload := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := ep.Send(l.Addr().String(), payload); err != nil {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("stalled send error = %v, want ErrTimeout", err)
			}
			if !strings.Contains(err.Error(), l.Addr().String()) {
				t.Errorf("diagnostic %q does not name the peer", err)
			}
			return
		}
	}
	t.Fatal("sends to a never-reading peer kept succeeding for 30s")
}

// TestSendRecoversAfterWriteTimeout: a timed-out connection is dropped from
// the cache, so once the peer behaves again the next Send redials and
// succeeds — the sender needs no external reset.
func TestSendRecoversAfterWriteTimeout(t *testing.T) {
	stuck, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 16)
	go func() {
		defer close(conns) // by the sender, once Accept has failed
		for {
			c, err := stuck.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	defer func() {
		stuck.Close() // ends the accept loop; the range below waits for it
		for c := range conns {
			c.Close()
		}
	}()

	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.WriteTimeout = 200 * time.Millisecond

	payload := make([]byte, 1<<20)
	var sawTimeout bool
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := ep.Send(stuck.Addr().String(), payload); err != nil {
			sawTimeout = errors.Is(err, ErrTimeout)
			break
		}
	}
	if !sawTimeout {
		t.Fatal("never hit the write timeout")
	}

	// A healthy endpoint receives the redialed frame.
	healthy, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if err := ep.Send(healthy.Addr(), []byte("after-timeout")); err != nil {
		t.Fatalf("send after timeout: %v", err)
	}
	select {
	case msg := <-healthy.Receive():
		if string(msg.Payload) != "after-timeout" {
			t.Fatalf("payload = %q", msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame after the timed-out connection was dropped")
	}
}

// TestSendDialTimeoutBounded: dialing a peer that cannot complete the
// handshake returns within the configured bound instead of hanging — the
// exact error depends on the host network stack (refused, unreachable, or
// our ErrTimeout), but a hung fleet worker is never an option.
func TestSendDialTimeoutBounded(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.DialTimeout = 250 * time.Millisecond

	// TEST-NET-1 (192.0.2.0/24) is reserved and never routable; hosts that
	// silently drop the SYN exercise the timeout path, hosts that reject
	// exercise the error path. Both must return promptly. (Environments
	// with a transparent proxy may complete the handshake — then there is
	// nothing to assert beyond the bound.)
	start := time.Now()
	err = ep.Send("192.0.2.1:9", []byte("x"))
	elapsed := time.Since(start)
	if elapsed > ep.DialTimeout+2*time.Second {
		t.Fatalf("dial took %v, bound was %v (err=%v)", elapsed, ep.DialTimeout, err)
	}
	if err == nil {
		t.Skip("environment accepted the TEST-NET-1 dial (transparent proxy)")
	}
}
