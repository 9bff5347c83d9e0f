package torclient

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Stream is an anonymous byte stream carried over a circuit. It implements
// net.Conn. A stream belongs either to a client circuit (data addressed to
// the last hop) or to a hidden service's session (data addressed at the
// service layer).
type Stream struct {
	circ    *Circuit
	id      uint16
	service bool // true when this is the HS side of a rendezvous session

	mu   sync.Mutex
	cond *sync.Cond
	buf  simnet.ChunkQueue // unread DATA payloads; drained chunks go back to the pool
	eof  bool
	err  error
	// Deadlines are stored as virtual instants so all timeout arithmetic
	// lives on the simnet clock; SetReadDeadline/SetWriteDeadline convert
	// their wall-clock arguments at call time.
	rDeadline    time.Duration
	hasRDeadline bool
	wDeadline    time.Duration
	hasWDeadline bool
	ready        chan struct{} // closed on CONNECTED
	readyErr     error
	once         sync.Once
}

func newStream(circ *Circuit, id uint16, service bool) *Stream {
	s := &Stream{circ: circ, id: id, service: service, ready: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// OpenStream opens a stream through the circuit to target ("host:port").
// On a plain circuit the last hop acts as the exit; on a rendezvous
// circuit (after AttachRendezvousLayer) the hidden service receives the
// BEGIN.
func (circ *Circuit) OpenStream(target string) (net.Conn, error) {
	sp := circ.client.reg.StartSpan("stream.open")
	sp.Note(target)
	conn, err := circ.openStream(target)
	if err != nil {
		circ.client.m.streamFails.Inc()
		sp.Fail(err)
	} else {
		circ.client.m.streamsOpened.Inc()
	}
	sp.End()
	return conn, err
}

func (circ *Circuit) openStream(target string) (net.Conn, error) {
	circ.mu.Lock()
	circ.nextStream++
	id := circ.nextStream
	s := newStream(circ, id, false)
	circ.streams[id] = s
	circ.mu.Unlock()

	data, err := cell.EncodeControl(&cell.BeginPayload{Target: target})
	if err != nil {
		return nil, err
	}
	if err := circ.send(cell.RelayHeader{StreamID: id, Cmd: cell.RelayBegin}, data); err != nil {
		circ.dropStream(id)
		return nil, err
	}
	unblock := circ.client.Clock().Blocking()
	defer unblock()
	deadline, stop := circ.client.ctrlDeadline()
	defer stop()
	select {
	case <-s.ready:
		if s.readyErr != nil {
			circ.dropStream(id)
			return nil, s.readyErr
		}
		return s, nil
	case <-circ.closed:
		if cause := circ.Err(); cause != nil {
			return nil, fmt.Errorf("%w: %v", ErrCircuitClosed, cause)
		}
		return nil, ErrCircuitClosed
	case <-deadline:
		// A BEGIN that never comes back means the circuit is stalled;
		// tear it down so its hops are avoided on the rebuild.
		err := fmt.Errorf("torclient: timeout opening stream to %s", target)
		circ.closeWithReason(err)
		return nil, err
	}
}

func (circ *Circuit) dropStream(id uint16) {
	circ.mu.Lock()
	delete(circ.streams, id)
	circ.mu.Unlock()
}

func (s *Stream) connected() {
	s.once.Do(func() { close(s.ready) })
}

func (s *Stream) deliver(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(data)
	s.cond.Broadcast()
}

func (s *Stream) deliverEOF() {
	s.once.Do(func() {
		s.readyErr = errors.New("torclient: stream refused")
		close(s.ready)
	})
	s.mu.Lock()
	s.eof = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Stream) closeWithError(err error) {
	s.once.Do(func() {
		s.readyErr = err
		close(s.ready)
	})
	s.mu.Lock()
	s.err = err
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Read implements net.Conn. A read deadline produces a timeout error for
// the blocked read only; later reads proceed once the deadline is cleared
// or extended, matching net.Conn semantics.
func (s *Stream) Read(p []byte) (int, error) {
	clock := s.circ.client.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.buf.Len() > 0 {
			return s.buf.Read(p), nil
		}
		if s.err != nil {
			return 0, s.err
		}
		if s.eof {
			return 0, io.EOF
		}
		if s.hasRDeadline && clock.Now() >= s.rDeadline {
			return 0, errStreamTimeout
		}
		s.cond.Wait()
	}
}

// Write implements net.Conn, chunking into DATA cells. Client streams
// take the batched path: up to clientBatchCells cells packed, sealed,
// and onion-encrypted per crypto pass (service streams stay per-cell —
// the extra rendezvous layer is driven by the service handler, which
// interleaves sends). The write deadline is checked before each batch:
// a Write that straddles an expiring deadline reports the bytes already
// sent alongside the timeout.
func (s *Stream) Write(p []byte) (int, error) {
	clock := s.circ.client.Clock()
	total := 0
	for len(p) > 0 {
		s.mu.Lock()
		expired := s.hasWDeadline && clock.Now() >= s.wDeadline
		s.mu.Unlock()
		if expired {
			return total, errStreamTimeout
		}
		var n int
		var err error
		if s.service {
			n = len(p)
			if n > cell.MaxRelayData {
				n = cell.MaxRelayData
			}
			err = s.circ.sendServiceCell(cell.RelayHeader{StreamID: s.id, Cmd: cell.RelayData}, p[:n])
		} else {
			n, err = s.circ.sendData(s.id, p)
		}
		if err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Close implements net.Conn, sending END upstream.
func (s *Stream) Close() error {
	data, _ := cell.EncodeControl(&cell.EndPayload{Reason: "closed"})
	hdr := cell.RelayHeader{StreamID: s.id, Cmd: cell.RelayEnd}
	if s.service {
		s.circ.sendServiceCell(hdr, data)
		s.circ.dropServiceStream(s.id)
	} else {
		s.circ.send(hdr, data)
		s.circ.dropStream(s.id)
	}
	s.mu.Lock()
	s.eof = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr {
	return streamAddr{fmt.Sprintf("circ-%d:%d", s.circ.circID, s.id)}
}

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return streamAddr{"tor-stream"} }

// SetDeadline implements net.Conn, covering both reads and writes.
func (s *Stream) SetDeadline(t time.Time) error {
	if err := s.SetReadDeadline(t); err != nil {
		return err
	}
	return s.SetWriteDeadline(t)
}

// virtualDeadline converts a wall-clock deadline into a virtual instant
// on the simnet clock. Callers pass wall times (the net.Conn contract);
// internally all waits live in the virtual domain.
func (s *Stream) virtualDeadline(t time.Time) (time.Duration, time.Duration) {
	clock := s.circ.client.Clock()
	wall := time.Until(t)
	if wall < 0 {
		wall = 0
	}
	v := clock.Virtual(wall)
	return clock.Now() + v, v
}

// SetReadDeadline implements net.Conn.
func (s *Stream) SetReadDeadline(t time.Time) error {
	clock := s.circ.client.Clock()
	var wake time.Duration
	s.mu.Lock()
	if t.IsZero() {
		s.hasRDeadline = false
	} else {
		s.hasRDeadline = true
		s.rDeadline, wake = s.virtualDeadline(t)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if !t.IsZero() {
		clock.AfterFunc(wake, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
	}
	return nil
}

// SetWriteDeadline implements net.Conn. Stream writes are paced by the
// emulated egress link, so a deadline matters when chaos severs a path
// mid-write; it is checked before each DATA cell.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.IsZero() {
		s.hasWDeadline = false
		return nil
	}
	s.hasWDeadline = true
	s.wDeadline, _ = s.virtualDeadline(t)
	return nil
}

var errStreamTimeout = timeoutError{}

type timeoutError struct{}

func (timeoutError) Error() string   { return "torclient: stream read timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

type streamAddr struct{ s string }

func (a streamAddr) Network() string { return "tor" }
func (a streamAddr) String() string  { return a.s }
