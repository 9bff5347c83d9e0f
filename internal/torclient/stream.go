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
// net.Conn. A stream's cells go to and come from one end of the circuit:
// the last hop for a stream the client opened, the service layer for one
// a rendezvous client opened to this client's hidden service.
type Stream struct {
	circ *Circuit
	id   uint16
	at   end

	mu   sync.Mutex
	cond *simnet.Cond      // on mu: data, EOF, an error, CONNECTED, or a deadline
	buf  simnet.ChunkQueue // unread DATA payloads; drained chunks go back to the pool
	open bool              // CONNECTED arrived
	eof  bool
	err  error
	// Deadlines are stored as virtual instants so all timeout arithmetic
	// lives on the simnet clock; SetReadDeadline/SetWriteDeadline convert
	// their wall-clock arguments at call time.
	rDeadline    time.Duration
	hasRDeadline bool
	rdTimer      *simnet.VTimer // wakes a Read blocked past rDeadline
	wDeadline    time.Duration
	hasWDeadline bool
}

func newStream(circ *Circuit, id uint16, at end) *Stream {
	s := &Stream{circ: circ, id: id, at: at}
	s.cond = simnet.NewCond(circ.client.Clock(), &s.mu)
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
	id := circ.nextStream + 1
	for id == 0 || circ.streams[id] != nil {
		id++ // the ID space is shared with a served rendezvous client's
	}
	circ.nextStream = id
	s := newStream(circ, id, hopEnd)
	circ.streams[id] = s
	circ.mu.Unlock()

	data, err := cell.EncodeControl(&cell.BeginPayload{Target: target})
	if err != nil {
		return nil, err
	}
	if _, err := circ.originate(hopEnd, cell.RelayHeader{StreamID: id, Cmd: cell.RelayBegin}, data); err != nil {
		circ.dropStream(s)
		return nil, err
	}
	// Circuit teardown reaches the stream too (closeWithError), so the
	// stream's own state says everything this wait needs.
	expired, stop := circ.client.ctrlDeadline(s.cond)
	defer stop()
	s.mu.Lock()
	for !s.open && !s.eof && s.err == nil && !*expired {
		s.cond.Wait()
	}
	open, eof, err := s.open, s.eof, s.err
	s.mu.Unlock()
	switch {
	case open:
		return s, nil
	case err != nil:
	case eof:
		err = errors.New("torclient: stream refused")
	default:
		// A BEGIN that never comes back means the circuit is stalled;
		// tear it down so its hops are avoided on the rebuild.
		err = fmt.Errorf("torclient: timeout opening stream to %s", target)
		circ.closeWithReason(err)
	}
	circ.dropStream(s)
	return nil, err
}

// dropStream takes s out of the stream table, unless its ID has been
// reused since.
func (circ *Circuit) dropStream(s *Stream) {
	circ.mu.Lock()
	if circ.streams[s.id] == s {
		delete(circ.streams, s.id)
	}
	circ.mu.Unlock()
}

func (s *Stream) connected() {
	s.mu.Lock()
	s.open = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *Stream) deliver(data []byte) {
	s.mu.Lock()
	s.buf.Write(data)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// deliverEOF records the peer's END: a stream not yet open was refused.
func (s *Stream) deliverEOF() {
	s.mu.Lock()
	s.eof = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *Stream) closeWithError(err error) {
	s.mu.Lock()
	s.err = err
	s.rdTimer.Stop()
	s.mu.Unlock()
	s.cond.Broadcast()
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

// Write implements net.Conn, chunking into runs of up to
// clientBatchCells DATA cells (originate). The write deadline is checked
// before each run: a Write that straddles an expiring deadline reports
// the bytes already sent alongside the timeout.
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
		n, err := s.circ.originate(s.at, cell.RelayHeader{StreamID: s.id, Cmd: cell.RelayData}, p)
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
	s.circ.originate(s.at, cell.RelayHeader{StreamID: s.id, Cmd: cell.RelayEnd}, data)
	s.circ.dropStream(s)
	s.mu.Lock()
	s.eof = true
	s.rdTimer.Stop()
	s.mu.Unlock()
	s.cond.Broadcast()
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

// virtualDeadline converts a wall-clock deadline (the net.Conn contract)
// into a virtual instant and the virtual wait until it.
func (s *Stream) virtualDeadline(t time.Time) (at, wait time.Duration) {
	clock := s.circ.client.Clock()
	wait = clock.Virtual(time.Until(t))
	return clock.Now() + wait, wait
}

// SetReadDeadline implements net.Conn. The stream keeps one timer for
// it, stopped when the deadline is cleared, replaced, or the stream
// closes, so a caller that sets and clears a deadline per operation
// leaves nothing behind on the clock.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	s.rdTimer.Stop()
	if s.hasRDeadline = !t.IsZero(); s.hasRDeadline {
		var wake time.Duration
		s.rDeadline, wake = s.virtualDeadline(t)
		s.rdTimer = s.circ.client.Clock().AfterFunc(wake, func() {
			// Under mu: what changed is the clock, not the stream, and a
			// Read between its deadline check and its Wait must not miss it.
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn. Stream writes are paced by the
// emulated egress link, so a deadline matters when chaos severs a path
// mid-write; it is checked before each DATA cell.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasWDeadline = !t.IsZero(); s.hasWDeadline {
		s.wDeadline, _ = s.virtualDeadline(t)
	}
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
