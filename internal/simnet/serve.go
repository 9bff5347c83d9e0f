package simnet

import (
	"io"
	"net"
)

// serveHighWater is the backlog, in bytes, past which a request server
// stops reading a conn after an answer, until half of it has left: a
// client that stops reading holds at most this and one answer in the
// server. A client that waits for each answer never meets the pause.
const serveHighWater = 64 << 10

// ServeRequests serves port with no goroutine. A deliver callback
// reassembles each conn's requests in a carry buffer: split returns the
// length of the whole request at the front of buf, 0 while buf holds only
// part of one, or an error once buf cannot start a request within the
// server's bound. handle answers each request in delivery context, so it
// must not block; req is valid only for the call, and w writes with
// WriteAsync. The conn closes on EOF, on a split error, or when handle
// returns false.
//
// A request that must block is handed on: w has a method Hold(op func(w
// io.Writer) bool), and once a handle that calls it returns, op runs on a
// goroutine of its own (Clock.Go) and holds the conn until it returns.
// Nothing after the request is served meanwhile, and an EOF waits behind
// it. op writes through w, the conn's blocking Write. The conn closes if
// op returns false, and otherwise serves on in timer/dispatcher context.
// req is not valid in op: handle copies what op needs.
func (h *Host) ServeRequests(port int, split func(buf []byte) (int, error), handle func(req []byte, w io.Writer) bool) (net.Listener, error) {
	return h.ListenFunc(port, func(c LightConn) {
		s := &requestConn{LightConn: c, clock: h.Clock(), split: split, handle: handle}
		c.SetDeliverFunc(s.onDeliver)
	})
}

type requestConn struct {
	LightConn
	clock  *Clock
	split  func([]byte) (int, error)
	handle func([]byte, io.Writer) bool
	carry  []byte                 // a copy of what follows the last whole request
	held   func(w io.Writer) bool // the op handle passed to Hold
}

// Write is handle's writer.
func (s *requestConn) Write(p []byte) (int, error) {
	if err := s.WriteAsync(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Hold is handle's hand-off of a request to a goroutine.
func (s *requestConn) Hold(op func(w io.Writer) bool) { s.held = op }

func (s *requestConn) onDeliver(data []byte, eof bool) {
	if eof {
		s.Close()
	} else {
		s.serve(data)
	}
}

// serve answers every whole request in the carry and data, and carries
// the rest. It reports false once it has closed, held or paused the conn,
// after which its caller must do nothing more: the op or the drain may
// resume the conn at once, on another goroutine.
func (s *requestConn) serve(data []byte) bool {
	buf := data
	if len(s.carry) > 0 {
		s.carry = append(s.carry, data...)
		buf = s.carry
	}
	for len(buf) > 0 {
		n, err := s.split(buf)
		if n == 0 && err == nil {
			break
		}
		if err != nil || !s.handle(buf[:n], s) {
			s.Close()
			return false
		}
		buf = buf[n:]
		if op := s.held; op != nil || s.Backlog() > serveHighWater {
			s.carry = append(s.carry[:0], buf...)
			s.SetDeliverFunc(nil)
			if s.held = nil; op == nil {
				s.OnDrain(s.resume)
			} else {
				s.clock.Go(func() { // the hold ends: the conn closes, or serves on
					if op(s.LightConn) {
						s.clock.AfterFunc(0, s.resume)
					} else {
						s.Close()
					}
				})
			}
			return false
		}
	}
	s.carry = append(s.carry[:0], buf...)
	return true
}

// resume answers what was carried through a pause or a hold, then reads
// on; an EOF owed meanwhile comes with the deliver callback.
func (s *requestConn) resume() {
	if s.serve(nil) {
		s.SetDeliverFunc(s.onDeliver)
	}
}
