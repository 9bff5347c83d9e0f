package relay

import (
	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/simnet"
)

// How a circuit's links are served, on both clocks. A goroutine per link
// is the right shape on a real network, where goroutines are parked in
// the kernel — but under the discrete-event core each is a park/unpark
// bridge crossing per cell, and at 500k circuits the quiescence detector
// drowns the dispatcher. Here links deliver through
// LightConn.SetDeliverFunc: runs arrive as callbacks (on the dispatcher
// on the event clock; on a wall-backed one each on a goroutine of its
// own, started at once for a zero wait such as a hop's delivery and by a
// runtime timer for a longer one), the circuit's forward path runs
// inline, and egress goes out through
// WriteAsync — zero goroutines and zero parks per link. A circuit never
// has a goroutine: EXTEND and BEGIN dial with Host.DialFunc, pausing the
// client link for the dial's round trip the way a stall does, and finish
// in the dial's callback, which resumes the link.
//
// Flow control is one bound, per hop: a write that leaves an egress conn
// holding more than spillHighWater cells' worth of bytes its peer has not
// taken makes the circuit stop taking deliveries from the conn that fed
// it (SetDeliverFunc(nil)). That conn's receive buffer then fills, and
// simnet's flow control pauses the hop before it, and so on back to the
// sender. A one-shot drain callback on the egress resumes the feed once
// its backlog has halved, so the egress still has bytes to send. The
// egress is the next hop (fed by the client link), the client link (fed
// by the next hop or an exit destination), an exit destination (fed by
// the client link), or a joined circuit's client link (fed by this
// circuit's client link). One link carries one circuit, so the pause is
// per circuit.

const (
	// maxSpillCells is what one circuit may hold in the relay, in cells:
	// the bound its egress backlog stays under.
	maxSpillCells = 4096
	// spillHighWater is the egress backlog, in cells, past which a circuit
	// stalls the conn that fed it. A feed is stalled only once the
	// delivery in hand is handled, so an egress holds at most one
	// delivered chunk (a simnet chunk, 32 KiB) past the mark — well under
	// maxSpillCells.
	spillHighWater = maxSpillCells / 2
)

// serve wires an accepted link into a new circuit and returns at once:
// all further work for this link happens in deliver callbacks. It is the
// ORPort's accept callback; the relay keeps no table of its circuits.
func (r *Relay) serve(conn simnet.LightConn) *circuit {
	c := &circuit{relay: r, conn: conn}
	conn.SetDeliverFunc(c.onDeliver)
	return c
}

// congested reports whether e holds more than the high-water mark of
// written bytes its peer has not yet taken.
func congested(e simnet.LightConn) bool { return e.Backlog() > spillHighWater*cell.Size }

// stall stops taking deliveries from fed until egress has drained to its
// low-water mark (OnDrain), then hands fed's deliveries back to deliver. It must be the last thing fed's
// deliver callback does: once the callback is cleared the drain may
// reinstall it at once, on another goroutine on a wall-backed clock.
func (c *circuit) stall(fed, egress simnet.LightConn, deliver func([]byte, bool)) {
	c.relay.m.stalls.Inc()
	fed.SetDeliverFunc(nil)
	egress.OnDrain(func() {
		if !c.destroyed.Load() {
			fed.SetDeliverFunc(deliver)
		}
	})
}

// congestedAhead returns an egress the forward direction writes that is
// over the high-water mark, or nil.
func (c *circuit) congestedAhead() simnet.LightConn {
	if c.destroyed.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next != nil && congested(c.next) {
		return c.next
	}
	if j := c.joined; j != nil && congested(j.conn) {
		return j.conn
	}
	for _, s := range c.streams {
		if congested(s) {
			return s
		}
	}
	return nil
}

// onDeliver is the client link's delivery callback. data is a simnet
// chunk lent for the call (LightConn): the circuit either finishes with
// the bytes before returning (in-place decrypt; WriteAsync and PackRelay
// copy) or copies them first (FrameBuf's carry, the cells behind a dial).
// A delivery that met an EXTEND or BEGIN ends by pausing the link for the
// dial; one that congested an egress, by stalling it.
func (c *circuit) onDeliver(data []byte, eof bool) {
	if len(data) > 0 {
		c.inBuf.Feed(data, c.onForward)
	}
	if eof {
		c.teardown()
	} else if c.startDial() {
		// The dial's callback resumes the link.
	} else if e := c.congestedAhead(); e != nil {
		c.stall(c.conn, e, c.onDeliver)
	}
}

// onForward handles a run of whole cells from the client side: CREATE
// first, then RELAY cells until something else ends the circuit.
func (c *circuit) onForward(frames []byte) bool {
	if c.layer == nil {
		if !c.create(frames[:cell.Size]) {
			c.teardown()
			return false
		}
		frames = frames[cell.Size:]
	}
	run := cell.Burst{N: len(frames) / cell.Size, Buf: frames}
	end := relayCells(&run, true)
	if !c.behindDial(run.Frames()) {
		c.finishRun(run.Frames())
	}
	if end == cell.CmdRelay {
		return !c.destroyed.Load()
	}
	if end != cell.CmdDestroy {
		c.relay.logf("unexpected cell %v mid-circuit", end)
	}
	if !c.teardownBehindDial() {
		c.teardown()
	}
	return false
}

// onBackward is the next-hop link's delivery callback: the first cell
// answers the CREATE, and the cells from behind it get this hop's
// backward layer and continue toward the client.
func (c *circuit) onBackward(data []byte, eof bool) {
	if len(data) > 0 && !c.bwBuf.Feed(data, c.onBackwardRun) {
		return
	}
	if eof {
		c.destroyFromBehind()
	} else if !c.destroyed.Load() && congested(c.conn) {
		c.stall(c.next, c.conn, c.onBackward)
	}
}

func (c *circuit) onBackwardRun(frames []byte) bool {
	if !c.extended {
		if !c.extendDone(frames[:cell.Size]) {
			c.teardown()
			return false
		}
		frames = frames[cell.Size:]
	}
	run := cell.Burst{N: len(frames) / cell.Size, Buf: frames}
	end := relayCells(&run, false)
	if c.backwardRun(run.Frames()) != nil {
		c.teardown()
		return false
	}
	if end == cell.CmdDestroy {
		c.destroyFromBehind()
		return false
	}
	return true
}

// attachNext makes next, which has been sent the CREATE, the next-hop
// link: from here on its cells reach onBackward and forward cells go to
// it as nextID, behind the CREATE. False if the circuit is torn down
// (checked under mu, so teardown either closes the link or prevents it).
func (c *circuit) attachNext(next simnet.LightConn, nextID uint32) bool {
	c.mu.Lock()
	ok := !c.destroyed.Load()
	if ok {
		c.next, c.nextCircID = next, nextID
	}
	c.mu.Unlock()
	if ok {
		next.SetDeliverFunc(c.onBackward)
	}
	return ok
}

// attachStream installs the stream's callback, which flushes whatever the
// destination has already sent (and its hang-up) as DATA and END.
func (c *circuit) attachStream(streamID uint16, remote simnet.LightConn) {
	var deliver func(data []byte, eof bool)
	deliver = func(data []byte, eof bool) {
		if len(data) > 0 && c.originate(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayData}, data) != nil {
			c.teardown()
			return
		}
		if eof { // the destination hung up
			c.endStream(streamID, "eof")
			c.closeStream(streamID)
		} else if !c.destroyed.Load() && congested(c.conn) {
			c.stall(remote, c.conn, deliver)
		}
	}
	remote.SetDeliverFunc(deliver)
}
