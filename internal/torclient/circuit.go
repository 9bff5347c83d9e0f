package torclient

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
)

// ErrCircuitClosed is returned by operations on a closed circuit.
var ErrCircuitClosed = errors.New("torclient: circuit closed")

// ctrlMsg is a control relay cell routed to a waiting operation.
type ctrlMsg struct {
	hop  int
	hdr  cell.RelayHeader
	data []byte
}

// serviceState is the hidden-service side of a rendezvous circuit: one
// extra crypto layer shared end-to-end with the connecting client, plus an
// acceptor invoked for each BEGIN arriving at that layer.
type serviceState struct {
	layer    *otr.Layer
	acceptor func(net.Conn)
	streams  map[uint16]*Stream
}

// Circuit is a client-built onion circuit.
type Circuit struct {
	client *Client
	conn   net.Conn
	w      *cell.BatchWriter // batched writer over conn (guard link)
	circID uint32
	path   []*dirauth.Descriptor

	// mu guards layer crypto state, conn writes, and stream bookkeeping.
	// Crypto must advance in exactly wire order, so encryption and the
	// write it precedes happen under one critical section.
	mu sync.Mutex
	// sendWire is the reused outbound frame, guarded by mu: every relay
	// cell is packed, sealed, and onion-encrypted in place here and put
	// on the wire with a single conn.Write (which copies synchronously).
	sendWire []byte
	// batchWire/batchViews/scratch are the reused buffers of the batched
	// data path (sendData): up to clientBatchCells DATA cells packed into
	// one contiguous run, onion-encrypted with a single keystream pass
	// per layer, and handed to the link writer in one call. Lazily
	// allocated — circuits that never carry bulk data never pay for them.
	batchWire  []byte
	batchViews [][]byte
	scratch    otr.CryptScratch
	layers     []*otr.Layer
	streams    map[uint16]*Stream
	nextStream uint16
	svc        *serviceState
	onIntro2   func(data []byte)

	ctrl      chan ctrlMsg
	closed    chan struct{}
	closeOnce sync.Once
	reason    error // why the circuit died; written before closed is closed

	// buildSpan parents per-hop extend spans while BuildCircuit runs.
	// Touched only by the building goroutine; nil once the build returns.
	buildSpan *obs.SpanHandle
}

// BuildCircuit constructs a circuit along the given path, performing the
// CREATE handshake with the first relay and telescoping EXTENDs to the
// rest.
func (c *Client) BuildCircuit(path []*dirauth.Descriptor) (*Circuit, error) {
	sp := c.reg.StartSpan("circuit.build")
	sp.Note(pathNote(path))
	start := c.host.Clock().Now()
	circ, err := c.buildCircuit(path, &sp)
	if err != nil {
		c.m.circBuildFails.Inc()
		sp.Fail(err)
	} else {
		c.m.circBuilt.Inc()
		c.m.buildNs.ObserveDuration(c.host.Clock().Now() - start)
	}
	sp.End()
	return circ, err
}

func (c *Client) buildCircuit(path []*dirauth.Descriptor, sp *obs.SpanHandle) (*Circuit, error) {
	if len(path) == 0 {
		return nil, errors.New("torclient: empty path")
	}
	conn, err := c.host.Dial(path[0].Address)
	if err != nil {
		c.MarkRelayBad(path[0].Fingerprint())
		return nil, fmt.Errorf("torclient: dialing guard %s: %w", path[0].Nickname, err)
	}
	c.mu.Lock()
	circID := uint32(c.rng.Int63())<<1 | 1
	tap := c.tap
	c.mu.Unlock()

	if tap != nil {
		conn = &tappedConn{Conn: conn, tap: tap, clock: c.host.Clock()}
	}

	// CREATE/CREATED with the guard, synchronously (dispatcher not yet
	// running).
	guardSpan := sp.Child("circuit.hop")
	guardSpan.Note(path[0].Nickname)
	guardStart := c.host.Clock().Now()
	hs, msg, err := otr.NewClientHandshake([]byte(path[0].Fingerprint()), path[0].OnionKey)
	if err != nil {
		conn.Close()
		return nil, err
	}
	create := &cell.Cell{CircID: circID, Cmd: cell.CmdCreate}
	copy(create.Payload[:], msg)
	if err := cell.Write(conn, create); err != nil {
		conn.Close()
		guardSpan.Fail(err)
		guardSpan.End()
		return nil, err
	}
	created, err := cell.Read(conn)
	if err != nil || created.Cmd != cell.CmdCreated {
		conn.Close()
		c.MarkRelayBad(path[0].Fingerprint())
		err = fmt.Errorf("torclient: CREATE to %s failed", path[0].Nickname)
		guardSpan.Fail(err)
		guardSpan.End()
		return nil, err
	}
	keys, err := hs.Finish(created.Payload[:otr.PublicKeyLen+otr.AuthLen])
	if err != nil {
		conn.Close()
		err = fmt.Errorf("torclient: guard handshake: %w", err)
		guardSpan.Fail(err)
		guardSpan.End()
		return nil, err
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		conn.Close()
		guardSpan.Fail(err)
		guardSpan.End()
		return nil, err
	}
	c.m.hopNs.ObserveDuration(c.host.Clock().Now() - guardStart)
	guardSpan.End()

	circ := &Circuit{
		client:   c,
		conn:     conn,
		w:        cell.NewBatchWriter(conn),
		circID:   circID,
		path:     path[:1],
		sendWire: make([]byte, cell.Size),
		layers:   []*otr.Layer{layer},
		streams:  make(map[uint16]*Stream),
		ctrl:     make(chan ctrlMsg, 64),
		closed:   make(chan struct{}),
	}
	go circ.dispatch()

	circ.buildSpan = sp
	for _, hop := range path[1:] {
		if err := circ.Extend(hop); err != nil {
			// The hop we were extending toward is the prime suspect: the
			// built prefix already proved itself by relaying the EXTEND.
			c.MarkRelayBad(hop.Fingerprint())
			circ.buildSpan = nil
			circ.Close()
			return nil, err
		}
	}
	circ.buildSpan = nil
	return circ, nil
}

// Path returns the descriptors of the circuit's hops.
func (circ *Circuit) Path() []*dirauth.Descriptor { return circ.path }

// Done returns a channel closed when the circuit is torn down.
func (circ *Circuit) Done() <-chan struct{} { return circ.closed }

// Len returns the number of onion layers (including a rendezvous layer, if
// attached).
func (circ *Circuit) Len() int {
	circ.mu.Lock()
	defer circ.mu.Unlock()
	return len(circ.layers)
}

// Extend telescopes the circuit by one hop.
func (circ *Circuit) Extend(hop *dirauth.Descriptor) error {
	var sp obs.SpanHandle
	if circ.buildSpan != nil {
		sp = circ.buildSpan.Child("circuit.hop")
	} else {
		sp = circ.client.reg.StartSpan("circuit.hop")
	}
	sp.Note(hop.Nickname)
	start := circ.client.Clock().Now()
	err := circ.extend(hop)
	if err != nil {
		sp.Fail(err)
	} else {
		circ.client.m.hopNs.ObserveDuration(circ.client.Clock().Now() - start)
	}
	sp.End()
	return err
}

func (circ *Circuit) extend(hop *dirauth.Descriptor) error {
	hs, msg, err := otr.NewClientHandshake([]byte(hop.Fingerprint()), hop.OnionKey)
	if err != nil {
		return err
	}
	data, err := cell.EncodeControl(&cell.ExtendPayload{
		Addr:        hop.Address,
		Fingerprint: hop.Fingerprint(),
		Handshake:   msg,
	})
	if err != nil {
		return err
	}
	if err := circ.send(cell.RelayHeader{Cmd: cell.RelayExtend}, data); err != nil {
		return err
	}
	msgIn, err := circ.awaitCtrl(cell.RelayExtended)
	if err != nil {
		return fmt.Errorf("torclient: extending to %s: %w", hop.Nickname, err)
	}
	var ext cell.ExtendedPayload
	if err := cell.DecodeControl(msgIn.data, &ext); err != nil {
		return err
	}
	keys, err := hs.Finish(ext.Reply)
	if err != nil {
		return fmt.Errorf("torclient: handshake with %s: %w", hop.Nickname, err)
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		return err
	}
	circ.mu.Lock()
	circ.layers = append(circ.layers, layer)
	circ.mu.Unlock()
	circ.path = append(circ.path, hop)
	return nil
}

// send packs and onion-encrypts a relay cell addressed to the last hop.
func (circ *Circuit) send(hdr cell.RelayHeader, data []byte) error {
	circ.mu.Lock()
	defer circ.mu.Unlock()
	return circ.sendLocked(hdr, data)
}

func (circ *Circuit) sendLocked(hdr cell.RelayHeader, data []byte) error {
	if circ.isClosed() {
		return ErrCircuitClosed
	}
	payload := cell.WirePayload(circ.sendWire)
	if err := cell.PackRelay(payload, hdr, data); err != nil {
		return err
	}
	target := len(circ.layers) - 1
	otr.OnionEncrypt(circ.layers, target, payload, cell.DigestOffset)
	cell.SetWireCircID(circ.sendWire, circ.circID)
	cell.SetWireCmd(circ.sendWire, cell.CmdRelay)
	circ.client.m.cellsSent.Inc()
	return circ.w.WriteFrame(circ.sendWire)
}

// clientBatchCells sizes the batched data path: one Stream.Write turns
// into runs of up to this many DATA cells encrypted per crypto pass.
// It matches the relay's backward batch so both directions amortize the
// same way.
const clientBatchCells = 16

// sendData packs up to clientBatchCells DATA cells from p into the
// reused contiguous batch buffer, onion-encrypts the whole run with one
// batched keystream pass per layer (byte-identical to per-cell sends),
// and hands it to the guard-link writer in a single call. It consumes
// at most one batch so callers can re-check write deadlines between
// batches, and returns the number of bytes taken from p.
func (circ *Circuit) sendData(streamID uint16, p []byte) (int, error) {
	circ.mu.Lock()
	defer circ.mu.Unlock()
	if circ.isClosed() {
		return 0, ErrCircuitClosed
	}
	if circ.batchWire == nil {
		circ.batchWire = make([]byte, clientBatchCells*cell.Size)
		circ.batchViews = make([][]byte, 0, clientBatchCells)
	}
	hdr := cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayData}
	views := circ.batchViews[:0]
	n, used := 0, 0
	for used < len(p) && n < clientBatchCells {
		chunk := p[used:]
		if len(chunk) > cell.MaxRelayData {
			chunk = chunk[:cell.MaxRelayData]
		}
		frame := circ.batchWire[n*cell.Size : (n+1)*cell.Size]
		payload := cell.WirePayload(frame)
		if err := cell.PackRelay(payload, hdr, chunk); err != nil {
			return 0, err
		}
		cell.SetWireCircID(frame, circ.circID)
		cell.SetWireCmd(frame, cell.CmdRelay)
		views = append(views, payload)
		used += len(chunk)
		n++
	}
	circ.batchViews = views
	otr.OnionCryptBatch(circ.layers, len(circ.layers)-1, views, cell.DigestOffset, &circ.scratch)
	circ.client.m.cellsSent.Add(int64(n))
	if err := circ.w.WriteFrames(circ.batchWire[:n*cell.Size]); err != nil {
		return 0, err
	}
	return used, nil
}

// SendDrop sends a long-range padding cell addressed to the last hop,
// carrying len junk bytes (capped at the cell data size). Used for
// client-originated cover traffic.
func (circ *Circuit) SendDrop(junk []byte) error {
	if len(junk) > cell.MaxRelayData {
		junk = junk[:cell.MaxRelayData]
	}
	return circ.send(cell.RelayHeader{Cmd: cell.RelayDrop}, junk)
}

func (circ *Circuit) isClosed() bool {
	select {
	case <-circ.closed:
		return true
	default:
		return false
	}
}

// Close destroys the circuit (a deliberate local teardown; no hop is
// blamed).
func (circ *Circuit) Close() error { return circ.closeWithReason(nil) }

// closeWithReason tears the circuit down, recording cause when the death
// was abnormal. An abnormal death feeds every hop into the client's
// avoid list — the client cannot tell which hop failed from its side of
// the guard link, so all are briefly suspect.
func (circ *Circuit) closeWithReason(cause error) error {
	circ.closeOnce.Do(func() {
		circ.reason = cause
		close(circ.closed)
		circ.w.WriteCell(&cell.Cell{CircID: circ.circID, Cmd: cell.CmdDestroy})
		circ.w.Close() // flushes the DESTROY, then closes the guard link
		circ.conn.Close()
		circ.mu.Lock()
		streams := circ.streams
		circ.streams = map[uint16]*Stream{}
		var svcStreams map[uint16]*Stream
		if circ.svc != nil {
			svcStreams = circ.svc.streams
			circ.svc.streams = map[uint16]*Stream{}
		}
		circ.mu.Unlock()
		streamErr := ErrCircuitClosed
		if cause != nil {
			streamErr = fmt.Errorf("%w: %v", ErrCircuitClosed, cause)
			circ.client.m.circDeaths.Inc()
			circ.client.noteCircuitFailure(circ)
		}
		for _, s := range streams {
			s.closeWithError(streamErr)
		}
		for _, s := range svcStreams {
			s.closeWithError(streamErr)
		}
	})
	return nil
}

// Err reports why the circuit died: nil while it is alive or after a
// clean local Close, non-nil after an abnormal death (DESTROY from a
// relay, severed guard link, stalled control cell).
func (circ *Circuit) Err() error {
	if !circ.isClosed() {
		return nil
	}
	return circ.reason
}

// dispatch reads runs of cells from the guard link and routes them. It
// waits on a one-cell buffer and holds a pooled burst only while a run
// is being handled: every consumer of cell data either copies
// synchronously (stream delivery into the stream's queue, control
// handlers) or is handed an explicit copy (ctrl channel, INTRODUCE2
// callback), so the burst goes back to the pool the moment handleRun
// returns.
func (circ *Circuit) dispatch() {
	wire := make([]byte, cell.Size)
	for {
		run, err := cell.ReadRun(circ.conn, wire)
		if err != nil {
			if circ.isClosed() {
				circ.Close() // local teardown already won the race
			} else {
				circ.closeWithReason(fmt.Errorf("torclient: guard link lost: %v", err))
			}
			return
		}
		alive := circ.handleRun(run)
		cell.PutBurst(run)
		if !alive {
			return
		}
	}
}

// streamData is the DATA of consecutive cells of one stream, gathered in
// place in the run being handled and delivered in one Stream.deliver.
// It is flushed when a cell for another stream arrives, before any
// other recognized command is acted on, and at the end of the run, so a
// stream sees its bytes, and its END after them, in cell order.
type streamData struct {
	run *cell.Burst
	s   *Stream
	cell.DataRun
}

func (d *streamData) add(s *Stream, k, n int) {
	if s != d.s {
		d.flush()
		d.s = s
	}
	d.Add(d.run, k, n)
}

func (d *streamData) flush() {
	if !d.Empty() {
		d.s.deliver(d.Take(d.run))
	}
}

// handleRun routes the cells of one run in order and reports whether
// the circuit is still up.
func (circ *Circuit) handleRun(run *cell.Burst) bool {
	pend := streamData{run: run}
	for k := 0; k < run.N; k++ {
		circ.client.m.cellsRecv.Inc()
		frame := run.Frame(k)
		switch cell.WireCmd(frame) {
		case cell.CmdDestroy:
			pend.flush()
			circ.closeWithReason(errors.New("torclient: circuit destroyed by relay"))
			return false
		case cell.CmdRelay:
			circ.handleRelay(cell.WirePayload(frame), k, &pend)
		}
	}
	pend.flush()
	return true
}

// handleRelay routes one inbound relay payload: cell k of the run pend
// gathers from (the payload aliases it; valid only until return).
func (circ *Circuit) handleRelay(payload []byte, k int, pend *streamData) {
	circ.mu.Lock()
	hop := otr.OnionDecrypt(circ.layers, payload, cell.RecognizedOffset, cell.DigestOffset)
	if hop < 0 && circ.svc != nil {
		// Possibly a cell at the service layer from a rendezvous client.
		circ.svc.layer.ApplyForward(payload)
		if cell.Recognized(payload) && circ.svc.layer.VerifyForward(payload, cell.DigestOffset) {
			hdr, data, err := cell.ParseRelay(payload)
			circ.mu.Unlock()
			if err == nil {
				circ.handleServiceCell(hdr, data, k, pend)
			}
			return
		}
	}
	if hop < 0 {
		circ.mu.Unlock()
		return // garbled or stray cell; drop
	}
	hdr, data, err := cell.ParseRelay(payload)
	if err != nil {
		circ.mu.Unlock()
		return
	}
	if hdr.Cmd == cell.RelayData {
		s := circ.streams[hdr.StreamID]
		circ.mu.Unlock()
		if s != nil {
			pend.add(s, k, len(data))
		}
		return
	}
	circ.mu.Unlock()
	pend.flush()
	circ.mu.Lock()
	switch hdr.Cmd {
	case cell.RelayEnd:
		s := circ.streams[hdr.StreamID]
		delete(circ.streams, hdr.StreamID)
		circ.mu.Unlock()
		if s != nil {
			if hdr.StreamID != 0 {
				s.deliverEOF()
			}
		} else if hdr.StreamID == 0 {
			// Control-level END (e.g. introduce failure): surface it.
			select {
			case circ.ctrl <- ctrlMsg{hop: hop, hdr: hdr, data: copyBytes(data)}:
			default:
			}
		}
	case cell.RelayConnected:
		s := circ.streams[hdr.StreamID]
		circ.mu.Unlock()
		if s != nil {
			s.connected()
		}
	case cell.RelayIntroduce2:
		cb := circ.onIntro2
		circ.mu.Unlock()
		if cb != nil {
			go cb(copyBytes(data))
		}
	case cell.RelayDrop:
		circ.mu.Unlock()
		// Inbound cover traffic: absorbed.
	default:
		circ.mu.Unlock()
		select {
		case circ.ctrl <- ctrlMsg{hop: hop, hdr: hdr, data: copyBytes(data)}:
		default:
			// Control queue overflow: drop (callers will time out).
		}
	}
}

// awaitCtrl waits for a control message with the given relay command. The
// wait is bounded in virtual time (Client.CtrlTimeout) so detection of a
// stalled circuit scales with the emulation rather than the wall clock.
func (circ *Circuit) awaitCtrl(cmd cell.RelayCommand) (ctrlMsg, error) {
	unblock := circ.client.Clock().Blocking()
	defer unblock()
	deadline, stop := circ.client.ctrlDeadline()
	defer stop()
	for {
		select {
		case m := <-circ.ctrl:
			if m.hdr.Cmd == cmd {
				return m, nil
			}
			if m.hdr.Cmd == cell.RelayEnd {
				var end cell.EndPayload
				cell.DecodeControl(m.data, &end)
				return ctrlMsg{}, fmt.Errorf("torclient: circuit-level END: %s", end.Reason)
			}
			// Unrelated control message: keep waiting.
		case <-circ.closed:
			return ctrlMsg{}, ErrCircuitClosed
		case <-deadline:
			// A stalled control cell is as fatal as a DESTROY: kill the
			// circuit so its hops land on the avoid list.
			err := fmt.Errorf("torclient: timeout waiting for %v", cmd)
			circ.closeWithReason(err)
			return ctrlMsg{}, err
		}
	}
}

func copyBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// tappedConn wraps the guard link to observe cell-sized reads and writes.
type tappedConn struct {
	net.Conn
	tap   TrafficTap
	clock interface{ Now() time.Duration }
	// readRem carries the bytes of a partially delivered cell across Read
	// calls. Only the dispatch goroutine reads the guard link, so no lock.
	readRem int
}

func (t *tappedConn) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	if n > 0 {
		// The batched link writer coalesces whole cells into one Write;
		// report each cell as its own event to keep the tap's documented
		// per-cell granularity (traffic traces count cells, not batches).
		now := t.clock.Now()
		for off := 0; off < n; off += cell.Size {
			sz := cell.Size
			if n-off < sz {
				sz = n - off
			}
			t.tap(+1, sz, now)
		}
	}
	return n, err
}

// Buffered passes the link's answer through (cell.ReadRun asks), so a
// tapped guard link is read in the same runs as an untapped one.
func (t *tappedConn) Buffered() int {
	if b, ok := t.Conn.(interface{ Buffered() int }); ok {
		return b.Buffered()
	}
	return 0
}

func (t *tappedConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		// The link delivers arbitrary byte runs: a single Read may return
		// several coalesced cells or a fragment of one. Mirror Write's
		// per-cell granularity by accumulating bytes and emitting one
		// event per completed cell, carrying remainders to the next Read.
		now := t.clock.Now()
		t.readRem += n
		for t.readRem >= cell.Size {
			t.tap(-1, cell.Size, now)
			t.readRem -= cell.Size
		}
	}
	return n, err
}
