package relay

import (
	"net"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/simnet"
)

// The light (event-native) transport: what serves a circuit whose links
// are simnet conns on the event clock. A goroutine per link is the right
// shape on a real network, where goroutines are parked in the kernel —
// but under the discrete-event core each is a park/unpark bridge crossing
// per cell, and at 500k circuits the quiescence detector drowns the
// dispatcher. Here links deliver through LightConn.SetDeliverFunc: runs
// arrive as dispatcher callbacks, the circuit's forward path runs inline,
// and egress goes out through WriteAsync — zero goroutines, zero parks,
// so a pure relay epoch needs no settles at all. Callbacks may not block,
// and WriteAsync never does, so mayBlock is ignored throughout.

// lightLink is a circuit on the light transport: the circuit, its two
// links, and their reassembly buffers (dispatcher context only).
type lightLink struct {
	circuit
	conn  simnet.LightConn // inbound link, toward the circuit origin
	next  simnet.LightConn // toward the next hop, nil until extended; written under mu
	inBuf frameBuf         // client-side chunk→cell reassembly
	bwBuf frameBuf         // next-hop-side reassembly
}

// frameBuf reassembles delivered byte chunks into runs of whole wire
// cells: simnet chunks both split and merge cells (a 16-cell WriteAsync
// burst can arrive as one 8KiB delivery). The whole cells sitting aligned
// in the incoming chunk are emitted in place as one run with no copy;
// only split cells touch the carry buffer. emit may mutate the frames
// (in-place decrypt) and returns false to abort the feed (circuit gone).
type frameBuf struct {
	carry []byte
}

func (fb *frameBuf) feed(data []byte, emit func(frames []byte) bool) bool {
	if len(fb.carry) > 0 {
		need := min(cell.Size-len(fb.carry), len(data))
		fb.carry = append(fb.carry, data[:need]...)
		data = data[need:]
		if len(fb.carry) < cell.Size {
			return true
		}
		if !emit(fb.carry) {
			return false
		}
		fb.carry = fb.carry[:0]
	}
	if whole := len(data) / cell.Size * cell.Size; whole > 0 {
		if !emit(data[:whole]) {
			return false
		}
		data = data[whole:]
	}
	fb.carry = append(fb.carry, data...)
	return true
}

// serveLight wires an accepted link into the light transport and returns
// immediately: all further work for this link happens in deliver
// callbacks. Called from the accept loop.
func (r *Relay) serveLight(conn simnet.LightConn) {
	l := &lightLink{conn: conn}
	l.init(r, l)
	r.track(conn, true)
	conn.SetDeliverFunc(l.onDeliver)
}

// onDeliver is the inbound link's delivery callback. data is a simnet
// chunk lent for the call (LightConn): the circuit either finishes with
// the bytes before returning (in-place decrypt; WriteAsync and PackRelay
// copy) or copies them first (frameBuf's carry, the queue behind a
// helper).
func (l *lightLink) onDeliver(data []byte, eof bool) {
	if len(data) > 0 {
		l.inBuf.feed(data, l.onForward)
	}
	if eof {
		l.teardown()
	}
}

// onForward handles a run of whole cells from the client side: CREATE
// first, then RELAY cells until something else ends the circuit.
func (l *lightLink) onForward(frames []byte) bool {
	if l.layer == nil {
		if !l.create(frames[:cell.Size]) {
			l.teardown()
			return false
		}
		frames = frames[cell.Size:]
	}
	run := cell.Burst{N: len(frames) / cell.Size, Buf: frames}
	end := relayCells(&run, true)
	if l.admit(run.Frames(), false) {
		l.finishRun(run.Frames(), 0, false)
	}
	if end == cell.CmdRelay {
		return !l.destroyed.Load()
	}
	if end != cell.CmdDestroy {
		l.relay.logf("unexpected cell %v mid-circuit", end)
	}
	l.teardown()
	return false
}

// onBackward is the next-hop link's delivery callback: cells from behind
// get this hop's backward layer and continue toward the client.
func (l *lightLink) onBackward(data []byte, eof bool) {
	if len(data) > 0 {
		l.bwBuf.feed(data, l.onBackwardRun)
	}
	if eof {
		l.destroyFromBehind()
	}
}

func (l *lightLink) onBackwardRun(frames []byte) bool {
	run := cell.Burst{N: len(frames) / cell.Size, Buf: frames}
	end := relayCells(&run, false)
	if l.backwardRun(run.Frames(), false) != nil {
		l.teardown()
		return false
	}
	if end == cell.CmdDestroy {
		l.destroyFromBehind()
		return false
	}
	return true
}

// onStream turns exit-destination bytes into backward DATA cells.
func (l *lightLink) onStream(streamID uint16, data []byte, eof bool) {
	for len(data) > 0 {
		chunk := data[:min(len(data), cell.MaxRelayData)]
		if l.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayData}, chunk) != nil {
			l.teardown()
			return
		}
		data = data[len(chunk):]
	}
	if eof {
		l.streamEOF(streamID)
	}
}

func (l *lightLink) writeClient(frames []byte, _ bool) error { return l.conn.WriteAsync(frames) }

// writeNext reads next without mu: attachNext stored it before the circuit
// published extended under mu, and every caller has read extended there.
func (l *lightLink) writeNext(frames []byte, _ bool) error { return l.next.WriteAsync(frames) }

// writeConn refuses a conn that cannot take a write without parking the
// caller; on an event-driven simnet every conn can.
func (l *lightLink) writeConn(conn net.Conn, p []byte) error {
	lc, ok := conn.(simnet.LightConn)
	if !ok {
		return net.ErrClosed
	}
	return lc.WriteAsync(p)
}

func (l *lightLink) attachNext(next net.Conn) bool {
	lc, ok := next.(simnet.LightConn)
	l.mu.Lock()
	ok = ok && !l.destroyed.Load()
	if ok {
		l.next = lc
	}
	l.mu.Unlock()
	if ok {
		lc.SetDeliverFunc(l.onBackward)
	}
	return ok
}

// attachStream installs the stream's callback, which flushes whatever the
// destination has already sent (and its hang-up) as DATA and END.
func (l *lightLink) attachStream(streamID uint16, remote net.Conn) {
	lc, ok := remote.(simnet.LightConn)
	if !ok {
		l.streamEOF(streamID)
		return
	}
	lc.SetDeliverFunc(func(data []byte, eof bool) { l.onStream(streamID, data, eof) })
}

// sever tears down at once: nothing is queued on this side of a
// WriteAsync, so there is nothing to wait behind.
func (l *lightLink) sever(bool) { l.teardown() }

func (l *lightLink) closeLinks() {
	l.mu.Lock()
	next := l.next
	l.mu.Unlock()
	if next != nil {
		next.Close()
	}
	l.relay.track(l.conn, false)
	l.conn.Close()
}
