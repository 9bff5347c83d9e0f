package simnet

import (
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

const (
	// readBufMax bounds the receiver-side buffer; the sender's delivery
	// state machine pauses while it is full, providing end-to-end flow
	// control.
	readBufMax = 1 << 20
	// outQueueLen bounds the number of in-flight chunks per direction on
	// the blocking Write path.
	outQueueLen = 64
	// maxChunk is the largest unit a Write is split into.
	maxChunk = 32 * 1024
)

// conn is one endpoint of an emulated connection. Since the event-core
// refactor it owns no goroutines: the transmit side is a state machine
// whose pending queue is drained by clock timers (delivery events), and
// blocked Read/Write callers wait on conds that those events broadcast.
// The same state machine runs on both clock cores — under the legacy
// core the "events" are scaled real timers.
type conn struct {
	localHost  *Host
	remoteHost *Host
	local      addr
	remote     addr
	peer       *conn
	clock      *Clock

	mu sync.Mutex

	// chaosRng draws this endpoint's chunk-level faults (guarded by mu);
	// nil when chaos is disabled.
	chaosRng *rand.Rand

	// Receive side. rx holds the very chunks the peer's Write filled: the
	// bytes are copied once in (Write) and once out (Read).
	rx        ChunkQueue
	deliverFn func(data []byte, eof bool)
	readers   Cond          // on mu: data, EOF, close, or the read deadline
	rDeadline time.Duration // virtual instant
	rdTimer   *VTimer

	// Transmit side (state machine). The queue holds pooled chunks, each
	// stamped with its virtual delivery time; a Close queues an EOF marker
	// behind the in-flight data.
	txq       chunkList
	txLen     int           // chunks queued, for the outQueueLen window
	txBytes   int           // data bytes queued: the Backlog
	txFireFn  func()        // c.txFire, bound once: arming must not allocate
	drainFn   func()        // OnDrain's callbacks, run once txBytes <= drainAt
	lastAt    time.Duration // monotone delivery stamp (FIFO head-of-line)
	writers   Cond          // on mu: window space, close, or the write deadline
	wDeadline time.Duration // virtual instant
	wdTimer   *VTimer

	// deliverSeq counts SetDeliverFunc calls, so a flush learns that a
	// later call (its own callback pausing the conn) took over; it is only
	// compared across one flush, so 16 bits do.
	deliverSeq uint16
	// eofOwed: the EOF (the peer's close, a sever) came with no callback
	// installed; the next one installed gets it, even on a closed endpoint.
	eofOwed bool
	drainAt int32 // the backlog at or below which drainFn runs

	// The flags, packed into one word.
	eof           bool // peer closed; EOF after buffer drains
	hasRDeadline  bool
	senderWaiting bool // peer's tx paused until our buffer drains
	txScheduled   bool // a delivery timer for the head is armed
	txStalled     bool // head blocked on a partition; heal wake registered
	txWaitDrain   bool // paused until the peer's buffer drains
	hasWDeadline  bool
	closed        bool
}

// LightConn is the event-native face of a simnet connection: endpoints
// that want to exist without a goroutine (the -exp scale clients and
// relays) receive deliveries through a callback instead of blocking in
// Read, and write without parking the caller. Obtain it by type
// assertion on the net.Conn returned from Dial/Accept.
type LightConn interface {
	net.Conn
	// SetDeliverFunc routes deliveries to fn instead of the read buffer.
	// fn runs in timer/dispatcher context and must not block; under the
	// event core all callbacks are serialized on the dispatcher. data is a
	// pooled chunk lent for the duration of the call: fn may modify it in
	// place but must copy whatever it keeps, because the chunk is recycled
	// the moment fn returns. Any bytes already buffered are handed to fn
	// immediately, chunk by chunk, unless fn itself sets another callback
	// (nil: pause) on the way; the rest then stays buffered. fn(nil, true)
	// reports the peer's close or a sever of this endpoint. A nil fn
	// restores buffered reads: what arrives queues, and once the buffer
	// is full the peer's transmit side pauses (flow control).
	SetDeliverFunc(fn func(data []byte, eof bool))
	// WriteAsync queues p for delivery without ever blocking the caller:
	// egress pacing is folded into the delivery timestamp (a bucket
	// reservation) rather than waited out. Safe to call from a deliver
	// callback.
	WriteAsync(p []byte) error
	// Backlog reports the bytes written to the conn that have not yet
	// left it for the peer: in flight, paced, or held back by the peer's
	// full buffer.
	Backlog() int
	// OnDrain runs fn once, in timer/dispatcher context, when the
	// backlog has fallen to half of what it is at the call or below (a
	// low-water mark, so the conn still has bytes to send while fn
	// refills it); soon, if it is empty now. fn must not block. Several
	// pending callbacks all run, once the highest of their marks is
	// reached.
	OnDrain(fn func())
}

// newConnPair builds both endpoints. No goroutines are started; traffic
// moves when Writes schedule delivery events.
func newConnPair(client, server *Host, cport, sport int) (*conn, *conn) {
	cl := &conn{
		localHost:  client,
		remoteHost: server,
		local:      addr{client.name, cport},
		remote:     addr{server.name, sport},
		clock:      client.net.clock,
	}
	sv := &conn{
		localHost:  server,
		remoteHost: client,
		local:      addr{server.name, sport},
		remote:     addr{client.name, cport},
		clock:      server.net.clock,
	}
	cl.peer, cl.txFireFn = sv, cl.txFire
	sv.peer, sv.txFireFn = cl, sv.txFire
	for _, c := range [...]*conn{cl, sv} {
		c.readers = Cond{L: &c.mu, clock: c.clock}
		c.writers = Cond{L: &c.mu, clock: c.clock}
	}
	if ch := client.net.Chaos(); ch != nil {
		cl.chaosRng = ch.connRng(client.name, server.name)
		sv.chaosRng = ch.connRng(server.name, client.name)
	}
	client.registerConn(cl)
	server.registerConn(sv)
	return cl, sv
}

// enqueueLocked takes ownership of ch, appends it to the transmit queue
// and arms the delivery timer if the state machine is idle. Delivery
// stamps are monotone per conn: a chunk delayed by a chaos
// retransmission holds back everything behind it, like TCP head-of-line
// blocking.
func (c *conn) enqueueLocked(ch *chunk, at time.Duration) {
	if at < c.lastAt {
		at = c.lastAt
	}
	c.lastAt = at
	ch.at = at
	c.txq.push(ch)
	c.txLen++
	c.txBytes += len(ch.data)
	if !c.txScheduled && !c.txStalled && !c.txWaitDrain {
		c.armTxLocked()
	}
}

// armTxLocked schedules the head chunk's delivery event.
func (c *conn) armTxLocked() {
	c.txScheduled = true
	d := c.txq.head.at - c.clock.Now()
	c.clock.AfterFunc(d, c.txFireFn)
}

// txFire is the delivery event: it drains every due chunk, pausing on
// partitions (rescheduled by a heal event) and on a full peer buffer
// (rescheduled by the peer's reader draining it).
func (c *conn) txFire() {
	c.mu.Lock()
	for {
		head := c.txq.head
		if head == nil {
			c.txScheduled = false
			c.mu.Unlock()
			return
		}
		if now := c.clock.Now(); head.at > now {
			// Event core: chunks maturing later in the *current jiffy* are
			// drained by this event rather than re-armed. The wheel cannot
			// separate sub-jiffy instants anyway, so merging them costs no
			// observable resolution and turns an N-cell burst with N
			// distinct pacing stamps into one delivery event instead of N
			// arm/fire round-trips. The legacy core keeps exact arithmetic
			// (its timers are real and sub-jiffy precision is free).
			if !c.clock.EventDriven() || int64(head.at)>>tickShift > int64(now)>>tickShift {
				c.armTxLocked()
				c.mu.Unlock()
				return
			}
		}
		if !head.eof && c.localHost != c.remoteHost {
			if chaos := c.localHost.net.Chaos(); chaos != nil && chaos.blocked(c.localHost.name, c.remoteHost.name) {
				// A partitioned link stalls delivery (TCP retransmits
				// until the partition heals) rather than dropping bytes.
				// The heal schedules txResume; no polling.
				c.txScheduled = false
				c.txStalled = true
				c.mu.Unlock()
				chaos.onHeal(c.localHost.name, c.remoteHost.name, c.txResume)
				return
			}
		}
		c.txq.pop()
		c.txLen--
		c.txBytes -= len(head.data)
		if c.drainFn != nil && c.txBytes <= int(c.drainAt) {
			// From a timer of its own: on a wall-backed clock the conn goes
			// on delivering while the callback refills it.
			c.clock.AfterFunc(0, c.drainFn)
			c.drainFn = nil
		}
		c.writers.Broadcast()
		c.mu.Unlock()

		// The chunk leaves this conn here: the peer queues it, lends it to
		// its deliver callback, or drops it.
		var full bool
		if head.eof {
			c.peer.deliverEOF()
		} else {
			full = c.peer.deliver(head)
		}

		c.mu.Lock()
		if full {
			c.txScheduled = false
			c.txWaitDrain = true
			c.mu.Unlock()
			if c.peer.requestDrainWake() {
				c.txResume()
			}
			return
		}
	}
}

// txResume re-arms the delivery timer after a stall (partition heal,
// peer drain, or a fresh enqueue racing a pause). Idempotent.
func (c *conn) txResume() {
	c.mu.Lock()
	c.txStalled = false
	c.txWaitDrain = false
	if !c.txScheduled && c.txq.head != nil {
		c.armTxLocked()
	}
	c.mu.Unlock()
}

// deliver takes ownership of ch: it joins the read queue as is, or is
// lent to the deliver callback for the duration of the call and recycled
// when that returns. deliver reports whether the queue is over its
// flow-control limit.
func (c *conn) deliver(ch *chunk) (full bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putChunk(ch)
		return false
	}
	if fn := c.deliverFn; fn != nil {
		c.mu.Unlock()
		fn(ch.data, false)
		putChunk(ch)
		return false
	}
	c.rx.push(ch)
	c.readers.Broadcast()
	full = c.rx.Len() > readBufMax
	c.mu.Unlock()
	return full
}

// requestDrainWake registers the peer's paused transmit machine for a
// wake when our buffer drains. It reports true when the buffer already
// has room (or we closed), in which case the caller resumes itself.
func (c *conn) requestDrainWake() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.deliverFn != nil || c.rx.Len() <= readBufMax {
		return true
	}
	c.senderWaiting = true
	return false
}

func (c *conn) deliverEOF() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.eof = true
	c.readers.Broadcast()
	fn := c.deliverFn
	c.eofOwed = fn == nil
	c.mu.Unlock()
	if fn != nil {
		fn(nil, true)
	}
}

// SetDeliverFunc implements LightConn. Buffered chunks are flushed
// before fn is installed, so a delivery racing the call queues behind
// them instead of overtaking them, and an EOF that arrived while the
// conn still had no callback is handed over too. A SetDeliverFunc made
// by fn during the flush (or racing it) supersedes this one: the flush
// stops, and what it had not handed over stays buffered.
func (c *conn) SetDeliverFunc(fn func(data []byte, eof bool)) {
	c.mu.Lock()
	c.deliverFn = nil
	c.deliverSeq++
	seq := c.deliverSeq
	for fn != nil && c.rx.Len() > 0 {
		ch, off := c.rx.pop()
		c.mu.Unlock()
		fn(ch.data[off:], false)
		putChunk(ch)
		c.mu.Lock()
		if c.deliverSeq != seq {
			c.mu.Unlock()
			return
		}
	}
	c.deliverFn = fn
	eof := fn != nil && c.eof && (!c.closed || c.eofOwed)
	if eof {
		c.eofOwed = false
	}
	resume := c.senderWaiting && (fn != nil || c.rx.Len() <= readBufMax)
	if resume {
		c.senderWaiting = false
	}
	c.mu.Unlock()
	if eof {
		fn(nil, true)
	}
	if resume {
		c.peer.txResume()
	}
}

// Backlog implements LightConn.
func (c *conn) Backlog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txBytes
}

// OnDrain implements LightConn. A second callback pending at once is
// chained behind the first (the one allocation, on a rare path).
func (c *conn) OnDrain(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txBytes == 0 {
		c.clock.AfterFunc(0, fn)
		return
	}
	at := int32(min(c.txBytes/2, math.MaxInt32))
	if prev := c.drainFn; prev != nil {
		c.drainFn = func() { prev(); fn() }
		at = max(at, c.drainAt)
	} else {
		c.drainFn = fn
	}
	c.drainAt = at
}

// Read implements net.Conn.
func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	for {
		if c.hasRDeadline && c.clock.Now() >= c.rDeadline {
			c.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		if c.rx.Len() > 0 {
			n := c.rx.Read(p)
			resume := c.senderWaiting && c.rx.Len() <= readBufMax
			if resume {
				c.senderWaiting = false
			}
			c.mu.Unlock()
			if resume {
				c.peer.txResume()
			}
			return n, nil
		}
		if c.closed {
			c.mu.Unlock()
			return 0, net.ErrClosed
		}
		if c.eof {
			c.mu.Unlock()
			return 0, io.EOF
		}
		c.readers.Wait()
	}
}

// Write implements net.Conn. It blocks acquiring egress tokens
// (transmission delay) and on the in-flight chunk window, stamps each
// chunk's virtual delivery time, and hands it to the transmit state
// machine. A write deadline bounds both waits.
func (c *conn) Write(p []byte) (int, error) {
	m := c.localHost.net.metrics()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		c.mu.Lock()
		for {
			if c.closed {
				c.mu.Unlock()
				return total, net.ErrClosed
			}
			if c.hasWDeadline && c.clock.Now() >= c.wDeadline {
				c.mu.Unlock()
				return total, os.ErrDeadlineExceeded
			}
			if c.txLen < outQueueLen {
				break
			}
			c.writers.Wait()
		}
		var wdl time.Duration
		if c.hasWDeadline {
			wdl = c.wDeadline
		}
		c.mu.Unlock()
		if c.localHost != c.remoteHost {
			// Loopback traffic bypasses the NIC: only inter-host bytes
			// consume the uplink.
			if !c.localHost.egress.TakeUntil(n, wdl) {
				return total, os.ErrDeadlineExceeded
			}
		}
		ch := getChunk(n)
		copy(ch.data, p)
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			putChunk(ch)
			return total, net.ErrClosed
		}
		at, sever := c.stampLocked(n)
		if sever {
			c.mu.Unlock()
			putChunk(ch)
			c.severBoth()
			return total, net.ErrClosed
		}
		c.enqueueLocked(ch, at)
		c.mu.Unlock()
		if m != nil {
			m.bytesSent.Add(int64(n))
			m.chunksSent.Inc()
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// WriteAsync implements LightConn.
func (c *conn) WriteAsync(p []byte) error {
	m := c.localHost.net.metrics()
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		ch := getChunk(n)
		copy(ch.data, p)
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			putChunk(ch)
			return net.ErrClosed
		}
		var pacing time.Duration
		if c.localHost != c.remoteHost {
			pacing = c.localHost.egress.Reserve(n)
		}
		at, sever := c.stampLocked(n)
		if sever {
			c.mu.Unlock()
			putChunk(ch)
			c.severBoth()
			return net.ErrClosed
		}
		c.enqueueLocked(ch, at+pacing)
		c.mu.Unlock()
		if m != nil {
			m.bytesSent.Add(int64(n))
			m.chunksSent.Inc()
		}
		p = p[n:]
	}
	return nil
}

// stampLocked computes a chunk's virtual delivery time (propagation
// delay plus any chaos-injected latency) and whether chaos severs the
// connection instead.
func (c *conn) stampLocked(n int) (at time.Duration, sever bool) {
	at = c.clock.Now() + c.localHost.net.Delay(c.localHost.name, c.remoteHost.name)
	if chaos := c.localHost.net.Chaos(); chaos != nil && c.chaosRng != nil {
		extra, cut := chaos.chunkFaults(c.chaosRng, c.localHost.name, c.remoteHost.name)
		if cut {
			return 0, true
		}
		at += extra
	}
	return at, false
}

// Close implements net.Conn. The peer sees EOF after draining in-flight
// data (the EOF marker rides the transmit queue behind it); local reads
// fail immediately.
func (c *conn) Close() error {
	c.shut(false)
	return nil
}

// shut closes the endpoint. With sever it also returns the deliver
// callback still owed an EOF, taken in the same critical section that
// closes: a peer's EOF that reached deliverEOF first was that EOF, and
// none can reach it afterwards, so each callback sees exactly one. With
// no callback installed (a paused feed) the EOF is owed to the next one.
func (c *conn) shut(sever bool) (owed func(data []byte, eof bool)) {
	c.mu.Lock()
	if sever && !c.eof {
		owed, c.eof = c.deliverFn, true
		c.eofOwed = owed == nil && !c.closed
	}
	if c.closed {
		c.mu.Unlock()
		return owed
	}
	c.closed = true
	eofAt := c.lastAt
	if now := c.clock.Now(); eofAt < now {
		eofAt = now
	}
	c.enqueueLocked(&chunk{eof: true}, eofAt)
	c.readers.Broadcast()
	c.writers.Broadcast()
	resume := c.senderWaiting
	c.senderWaiting = false
	c.rdTimer.Stop()
	c.wdTimer.Stop()
	c.mu.Unlock()
	if resume {
		c.peer.txResume()
	}
	c.localHost.unregisterConn(c)
	return owed
}

// severBoth closes both endpoints abruptly (a chaos cut, a host crash).
// A blocked Read fails at once; a deliver callback cannot see its own
// endpoint close, so each side's is handed its EOF, in timer/dispatcher
// context like every delivery.
func (c *conn) severBoth() {
	for _, e := range [...]*conn{c.peer, c} {
		if fn := e.shut(true); fn != nil {
			e.clock.AfterFunc(0, func() { fn(nil, true) })
		}
	}
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn, covering both directions.
func (c *conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.setDeadline(t, &c.hasRDeadline, &c.rDeadline, &c.rdTimer, &c.readers)
	return nil
}

// SetWriteDeadline implements net.Conn: it bounds the egress-pacing and
// flow-control waits of a blocked Write.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.setDeadline(t, &c.hasWDeadline, &c.wDeadline, &c.wdTimer, &c.writers)
	return nil
}

// setDeadline sets one direction's deadline and has its waiters re-check
// it now and once it passes. The direction's one timer is stopped when
// the deadline is cleared or replaced. Callers pass wall times, the
// net.Conn contract; the deadline is kept as a virtual instant, so it
// means the same on both clock cores.
func (c *conn) setDeadline(t time.Time, has *bool, at *time.Duration, timer **VTimer, waiters *Cond) {
	c.mu.Lock()
	defer c.mu.Unlock()
	(*timer).Stop()
	if *has = !t.IsZero(); *has {
		wake := c.clock.Virtual(time.Until(t))
		*at = c.clock.Now() + wake
		*timer = c.clock.AfterFunc(wake, func() {
			// Under mu: what changed is the clock, and a waiter between
			// its deadline check and its Wait must not miss it.
			c.mu.Lock()
			waiters.Broadcast()
			c.mu.Unlock()
		})
	}
	waiters.Broadcast()
}
