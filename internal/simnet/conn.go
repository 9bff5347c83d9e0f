package simnet

import (
	"io"
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
// blocked Read/Write callers park on one-shot tokens that those events
// wake. The same state machine runs on both clock cores — under the
// legacy core the "events" are scaled real timers.
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
	rx            ChunkQueue
	eof           bool // peer closed; EOF after buffer drains
	deliverFn     func(data []byte, eof bool)
	readers       []*parker
	hasRDeadline  bool
	rDeadline     time.Duration // virtual instant
	rdTimer       *VTimer
	senderWaiting bool // peer's tx paused until our buffer drains

	// Transmit side (state machine). The queue holds pooled chunks, each
	// stamped with its virtual delivery time; a Close queues an EOF marker
	// behind the in-flight data.
	txq          chunkList
	txLen        int           // chunks queued, for the outQueueLen window
	txFireFn     func()        // c.txFire, bound once: arming must not allocate
	txScheduled  bool          // a delivery timer for the head is armed
	txStalled    bool          // head blocked on a partition; heal wake registered
	txWaitDrain  bool          // paused until the peer's buffer drains
	lastAt       time.Duration // monotone delivery stamp (FIFO head-of-line)
	writers      []*parker
	hasWDeadline bool
	wDeadline    time.Duration // virtual instant
	wdTimer      *VTimer

	closed bool
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
	// immediately, chunk by chunk. A nil fn restores buffered reads.
	SetDeliverFunc(fn func(data []byte, eof bool))
	// WriteAsync queues p for delivery without ever blocking the caller:
	// egress pacing is folded into the delivery timestamp (a bucket
	// reservation) rather than waited out. Safe to call from a deliver
	// callback.
	WriteAsync(p []byte) error
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
	if ch := client.net.Chaos(); ch != nil {
		cl.chaosRng = ch.connRng(client.name, server.name)
		sv.chaosRng = ch.connRng(server.name, client.name)
	}
	client.registerConn(cl)
	server.registerConn(sv)
	return cl, sv
}

// wakeReadersLocked releases every parked reader (they re-check state).
func (c *conn) wakeReadersLocked() {
	for _, p := range c.readers {
		p.wake()
	}
	c.readers = nil
}

// wakeWritersLocked releases every parked writer.
func (c *conn) wakeWritersLocked() {
	for _, p := range c.writers {
		p.wake()
	}
	c.writers = nil
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
		c.wakeWritersLocked()
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
	c.wakeReadersLocked()
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
	c.wakeReadersLocked()
	fn := c.deliverFn
	c.mu.Unlock()
	if fn != nil {
		fn(nil, true)
	}
}

// SetDeliverFunc implements LightConn. Buffered chunks are flushed
// before fn is installed, so a delivery racing the call queues behind
// them instead of overtaking them, and an EOF that arrived while the
// conn still had no callback is handed over too.
func (c *conn) SetDeliverFunc(fn func(data []byte, eof bool)) {
	c.mu.Lock()
	if fn == nil {
		c.deliverFn = nil
		c.mu.Unlock()
		return
	}
	for c.rx.Len() > 0 {
		pending, off := c.rx.take()
		c.mu.Unlock()
		for ch := pending.pop(); ch != nil; ch = pending.pop() {
			fn(ch.data[off:], false)
			off = 0
			putChunk(ch)
		}
		c.mu.Lock()
	}
	c.deliverFn = fn
	eof := c.eof && !c.closed
	resume := c.senderWaiting
	c.senderWaiting = false
	c.mu.Unlock()
	if eof {
		fn(nil, true)
	}
	if resume {
		c.peer.txResume()
	}
}

// Buffered reports how many delivered bytes a Read would return without
// blocking. A link reader uses it to take a whole burst of cells per
// wake-up instead of one (cell.ReadRun); it is a snapshot, so more may
// arrive before the Read.
func (c *conn) Buffered() int {
	c.mu.Lock()
	n := c.rx.Len()
	c.mu.Unlock()
	return n
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
		pk := c.clock.newParker()
		c.readers = append(c.readers, pk)
		c.mu.Unlock()
		c.clock.park(pk)
		c.mu.Lock()
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
			pk := c.clock.newParker()
			c.writers = append(c.writers, pk)
			c.mu.Unlock()
			c.clock.park(pk)
			c.mu.Lock()
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
			c.peer.Close()
			c.Close()
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
			c.peer.Close()
			c.Close()
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
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	eofAt := c.lastAt
	if now := c.clock.Now(); eofAt < now {
		eofAt = now
	}
	c.enqueueLocked(&chunk{eof: true}, eofAt)
	c.wakeReadersLocked()
	c.wakeWritersLocked()
	resume := c.senderWaiting
	c.senderWaiting = false
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	if c.wdTimer != nil {
		c.wdTimer.Stop()
		c.wdTimer = nil
	}
	c.mu.Unlock()
	if resume {
		c.peer.txResume()
	}
	c.localHost.unregisterConn(c)
	return nil
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

// virtualUntil converts a wall-clock deadline into (virtual instant,
// virtual delay from now). Callers pass wall times — the net.Conn
// contract — and all waiting happens in the virtual domain, so the
// semantics are identical on both clock cores.
func (c *conn) virtualUntil(t time.Time) (time.Duration, time.Duration) {
	wall := time.Until(t)
	if wall < 0 {
		wall = 0
	}
	v := c.clock.Virtual(wall)
	return c.clock.Now() + v, v
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	if t.IsZero() {
		c.hasRDeadline = false
		c.wakeReadersLocked()
		return nil
	}
	var wake time.Duration
	c.hasRDeadline = true
	c.rDeadline, wake = c.virtualUntil(t)
	c.wakeReadersLocked()
	c.rdTimer = c.clock.AfterFunc(wake, func() {
		c.mu.Lock()
		c.wakeReadersLocked()
		c.mu.Unlock()
	})
	return nil
}

// SetWriteDeadline implements net.Conn: it bounds the egress-pacing and
// flow-control waits of a blocked Write.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wdTimer != nil {
		c.wdTimer.Stop()
		c.wdTimer = nil
	}
	if t.IsZero() {
		c.hasWDeadline = false
		c.wakeWritersLocked()
		return nil
	}
	var wake time.Duration
	c.hasWDeadline = true
	c.wDeadline, wake = c.virtualUntil(t)
	c.wakeWritersLocked()
	c.wdTimer = c.clock.AfterFunc(wake, func() {
		c.mu.Lock()
		c.wakeWritersLocked()
		c.mu.Unlock()
	})
	return nil
}
