package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame bounds a single TCP frame (16 MiB) to contain misbehaving peers.
const maxFrame = 16 << 20

// Default deadlines for TCP endpoints. A hung peer (a replica wedged
// mid-restart, a SYN-blackholing firewall, a receiver that stopped reading
// so the socket buffers filled) must never stall a sender forever: Send is
// called from fleet workers and consensus event loops that own other work.
const (
	// DefaultDialTimeout bounds the lazy connect inside Send.
	DefaultDialTimeout = 5 * time.Second
	// DefaultWriteTimeout bounds one frame write (header + payload).
	DefaultWriteTimeout = 10 * time.Second
)

// TCPEndpoint is an Endpoint backed by real TCP connections with
// length-prefixed frames. Addresses are host:port strings; each endpoint
// listens on its own address and lazily dials peers.
//
// Sends to the same peer from multiple goroutines are serialized per
// connection, so concurrent senders (the fleet worker's heartbeat loop and
// its record batcher, for example) can share one endpoint without
// interleaving frames.
type TCPEndpoint struct {
	addr     string
	listener net.Listener
	ch       chan Message

	// DialTimeout bounds the lazy connect inside Send; WriteTimeout bounds
	// each frame write. Both default in ListenTCPAdvertise and may be
	// lowered before the endpoint is shared (they are read without locking
	// afterwards). Exceeding either fails the Send with a diagnostic that
	// wraps ErrTimeout and drops the cached connection, so the next Send
	// redials instead of queueing behind a wedged peer.
	DialTimeout  time.Duration
	WriteTimeout time.Duration

	mu      sync.Mutex
	conns   map[string]*lockedConn
	inbound []net.Conn
	closed  bool
	wg      sync.WaitGroup

	quarantined atomic.Int64
	dropped     atomic.Int64
}

// lockedConn pairs an outbound connection with a write mutex so two
// goroutines sending to the same peer cannot interleave their frames on the
// wire.
type lockedConn struct {
	mu   sync.Mutex
	conn net.Conn
	// buf assembles each frame under mu, so a frame is one Write — one
	// segment with TCP_NODELAY — and a steady stream of them allocates
	// nothing. A frame above maxRetainedFrame is not kept.
	buf []byte
}

// maxRetainedFrame bounds the frame buffer a connection keeps between
// sends; a larger frame is assembled in a buffer of its own.
const maxRetainedFrame = 1 << 20

// writeFrame writes one frame of payload from sender from with a single
// Write. The caller holds lc.mu.
func (lc *lockedConn) writeFrame(from string, payload []byte) error {
	frame, err := appendFrame(lc.buf[:0], from, payload)
	if err != nil {
		return err
	}
	if cap(frame) <= maxRetainedFrame {
		lc.buf = frame
	}
	_, err = lc.conn.Write(frame)
	return err
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenTCP starts an endpoint on the given address ("127.0.0.1:0" picks a
// free port; use Addr to learn it).
func ListenTCP(addr string) (*TCPEndpoint, error) {
	return ListenTCPAdvertise(addr, "")
}

// ListenTCPAdvertise starts an endpoint bound to bind but identifying
// itself — in Addr and in the From field of every frame it sends — as
// advertise. Peers reply by dialing an endpoint's advertised address, so a
// process that binds a wildcard or NAT-internal address (a fleet worker on
// "0.0.0.0:7001", say) must advertise the address peers can actually
// reach. An empty advertise uses the bound address, which is correct for
// loopback and for binds to a concrete routable IP.
func ListenTCPAdvertise(bind, advertise string) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	addr := advertise
	if addr == "" {
		addr = l.Addr().String()
	}
	e := &TCPEndpoint{
		addr:         addr,
		listener:     l,
		ch:           make(chan Message, 4096),
		conns:        make(map[string]*lockedConn),
		DialTimeout:  DefaultDialTimeout,
		WriteTimeout: DefaultWriteTimeout,
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr implements Endpoint.
func (e *TCPEndpoint) Addr() string { return e.addr }

// Receive implements Endpoint.
func (e *TCPEndpoint) Receive() <-chan Message { return e.ch }

// Send implements Endpoint.
func (e *TCPEndpoint) Send(to string, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	lc, ok := e.conns[to]
	e.mu.Unlock()
	if !ok {
		dialer := net.Dialer{Timeout: e.DialTimeout}
		conn, err := dialer.Dial("tcp", to)
		if err != nil {
			if isTimeout(err) {
				return fmt.Errorf("transport: dial %s after %v: %w", to, e.DialTimeout, ErrTimeout)
			}
			return fmt.Errorf("transport: dial %s: %w", to, err)
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return ErrClosed
		}
		if existing, dup := e.conns[to]; dup {
			e.mu.Unlock()
			_ = conn.Close()
			lc = existing
		} else {
			lc = &lockedConn{conn: conn}
			e.conns[to] = lc
			e.mu.Unlock()
		}
	}
	lc.mu.Lock()
	// The write deadline covers one whole frame: a receiver that accepted
	// the connection but stopped draining it (a stuck replica) fills the
	// socket buffers, the blocked write trips the deadline, and the failed
	// connection is dropped below so the next Send redials.
	if e.WriteTimeout > 0 {
		_ = lc.conn.SetWriteDeadline(time.Now().Add(e.WriteTimeout))
	}
	err := lc.writeFrame(e.addr, payload)
	if e.WriteTimeout > 0 {
		_ = lc.conn.SetWriteDeadline(time.Time{})
	}
	lc.mu.Unlock()
	if err != nil {
		e.mu.Lock()
		if cur, ok := e.conns[to]; ok && cur == lc {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		_ = lc.conn.Close()
		if isTimeout(err) {
			return fmt.Errorf("transport: send to %s stalled for %v (%d bytes pending): %w",
				to, e.WriteTimeout, len(payload), ErrTimeout)
		}
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[string]*lockedConn{}
	inbound := e.inbound
	e.inbound = nil
	e.mu.Unlock()

	_ = e.listener.Close()
	for _, c := range conns {
		_ = c.conn.Close()
	}
	// Closing inbound connections unblocks their reader goroutines, which
	// Close waits for below.
	for _, c := range inbound {
		_ = c.Close()
	}
	e.wg.Wait()
	close(e.ch)
	return nil
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inbound = append(e.inbound, conn)
		e.wg.Add(1)
		e.mu.Unlock()
		go e.readLoop(conn)
	}
}

// QuarantinedFrames reports how many oversized frames this endpoint has
// discarded without tearing down their connections (see readLoop).
func (e *TCPEndpoint) QuarantinedFrames() int64 { return e.quarantined.Load() }

// DroppedFrames reports how many well-formed frames this endpoint has
// discarded because its inbox was full — the receiver is not draining
// Receive as fast as peers send (see readLoop).
func (e *TCPEndpoint) DroppedFrames() int64 { return e.dropped.Load() }

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	fr := newFrameReader(conn)
	for {
		from, payload, err := fr.next()
		if errors.Is(err, errOversized) {
			// Quarantine, don't amputate: the oversized payload was already
			// drained off the wire (readFrame keeps the stream framed), so
			// the connection is still good. Killing it would let one
			// malformed frame — a bug or a hostile peer — sever a link that
			// heartbeats, acks and leases share, turning a bad message into
			// a lease expiry storm. The frame itself is dropped; the decode
			// layer above never sees it.
			e.quarantined.Add(1)
			continue
		}
		if err != nil {
			return
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		select {
		case e.ch <- Message{From: from, To: e.addr, Payload: payload}:
		default:
			// Drop on overflow, like the simulated network; senders retry.
			e.dropped.Add(1)
		}
	}
}

// appendFrame appends the frame [fromLen u16][from][payloadLen u32][payload]
// to dst.
func appendFrame(dst []byte, from string, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return dst, fmt.Errorf("transport: frame too large (%d bytes)", len(payload))
	}
	if len(from) > math.MaxUint16 {
		return dst, fmt.Errorf("transport: sender address too long (%d bytes)", len(from))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(from)))
	dst = append(dst, from...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// errOversized marks a frame whose declared payload exceeds maxFrame. The
// payload bytes have been consumed from the stream by the time next
// returns it, so the caller may keep reading subsequent frames.
var errOversized = errors.New("transport: oversized frame")

// frameReader reads one connection's frames through a buffer: a frame
// usually costs one read of the connection, or none when an earlier read
// brought it in, and allocates only its payload, which the receiver keeps.
// The sender's address is read in place and compared with the previous
// frame's, so a connection allocates its sender string once, not once a
// frame.
type frameReader struct {
	r    *bufio.Reader
	from string // the previous frame's sender
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads one frame written by appendFrame. The stream ending at a
// frame boundary is io.EOF; ending inside a frame is io.ErrUnexpectedEOF.
func (fr *frameReader) next() (from string, payload []byte, err error) {
	head, err := fr.peek(2, true)
	if err != nil {
		return "", nil, err
	}
	fromLen := int(binary.BigEndian.Uint16(head))
	fr.r.Discard(2)
	if from, err = fr.sender(fromLen); err != nil {
		return "", nil, err
	}
	if head, err = fr.peek(4, false); err != nil {
		return "", nil, err
	}
	size := binary.BigEndian.Uint32(head)
	fr.r.Discard(4)
	if size > maxFrame {
		// Drain the declared payload so the stream stays framed, then hand
		// the caller a typed error: the frame is garbage, the connection is
		// not. (The sender side enforces maxFrame too, so an oversized
		// declaration is corruption or malice — either way, quarantine.)
		if _, err := fr.r.Discard(int(size)); err != nil {
			return "", nil, unexpected(err)
		}
		return "", nil, fmt.Errorf("%w (%d bytes)", errOversized, size)
	}
	payload = make([]byte, size)
	if _, err = io.ReadFull(fr.r, payload); err != nil {
		return "", nil, unexpected(err)
	}
	return from, payload, nil
}

// sender reads an n-byte sender address, reusing the previous frame's
// string when the bytes are the same.
func (fr *frameReader) sender(n int) (string, error) {
	if n > fr.r.Size() {
		// Longer than the buffer (at most 64 KiB, never a real address):
		// read it into a slice of its own.
		b := make([]byte, n)
		if _, err := io.ReadFull(fr.r, b); err != nil {
			return "", unexpected(err)
		}
		fr.from = string(b)
		return fr.from, nil
	}
	b, err := fr.peek(n, false)
	if err != nil {
		return "", err
	}
	if string(b) != fr.from {
		fr.from = string(b)
	}
	fr.r.Discard(n)
	return fr.from, nil
}

// peek returns the stream's next n buffered bytes without consuming them;
// n is at most the buffer's size. Only at a frame's start (first) may the
// stream end cleanly.
func (fr *frameReader) peek(n int, first bool) ([]byte, error) {
	b, err := fr.r.Peek(n)
	if err != nil && (len(b) > 0 || !first) {
		err = unexpected(err)
	}
	return b, err
}

// unexpected reports the end of the stream inside a frame as
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
