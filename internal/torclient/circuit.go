package torclient

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// ErrCircuitClosed is returned by operations on a closed circuit.
var ErrCircuitClosed = errors.New("torclient: circuit closed")

// ctrlMsg is a control relay cell routed to a waiting operation.
type ctrlMsg struct {
	hdr  cell.RelayHeader
	data []byte
}

// serviceState is the hidden-service side of a rendezvous circuit: one
// extra crypto layer shared end-to-end with the connecting client, plus an
// acceptor invoked for each BEGIN arriving at that layer.
type serviceState struct {
	layer    *otr.Layer
	acceptor func(net.Conn)
}

// end is where a relay cell of the client's is originated to or
// recognized at: a hop of the circuit (originated: the last one), or the
// service layer of a rendezvous circuit this client serves.
type end uint8

const (
	hopEnd end = iota
	serviceEnd
)

// Circuit is a client-built onion circuit. A deliver callback reads its
// guard link and senders write it directly, so an idle circuit holds no
// goroutine (DESIGN.md §13.3).
type Circuit struct {
	client *Client
	conn   simnet.LightConn // the guard link
	tap    TrafficTap       // nil unless the client had one at build time
	circID uint32

	// sendMu orders what goes out on the guard link: forward crypto must
	// advance in wire order, so sealing a run and its conn.Write, which
	// can park, happen under it (originate). The deliver callback never
	// takes it.
	sendMu sync.Mutex

	// mu guards what the deliver callback touches and is never held
	// across a park. layers, path and svc change under both locks, sendMu
	// first, so either one reads them.
	mu         sync.Mutex
	layers     []*otr.Layer
	path       []*dirauth.Descriptor
	streams    map[uint16]*Stream // the client's, and the service's on a rendezvous circuit it serves
	nextStream uint16
	svc        *serviceState
	onIntro2   func(data []byte)

	inBuf cell.FrameBuf // deliver callback only

	// ctrlMu guards the control queue, the close transition and onClose,
	// and is ctrlCond's lock; the control deadline takes it on the
	// dispatcher.
	ctrlMu   sync.Mutex
	ctrlCond *simnet.Cond // a control cell queued, the circuit closed, or a deadline passed
	ctrlq    []ctrlMsg    // at most 64; past that the newest is dropped
	closed   atomic.Bool  // set under ctrlMu, after reason
	reason   error        // why the circuit died
	onClose  []func()     // run once at teardown

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
	dialed, err := c.host.Dial(path[0].Address)
	if err != nil {
		c.MarkRelayBad(path[0].Fingerprint())
		return nil, fmt.Errorf("torclient: dialing guard %s: %w", path[0].Nickname, err)
	}
	conn := dialed.(simnet.LightConn) // every simnet conn is one
	c.mu.Lock()
	circ := &Circuit{
		client:  c,
		conn:    conn,
		tap:     c.tap,
		circID:  uint32(c.rng.Int63())<<1 | 1,
		streams: make(map[uint16]*Stream),
	}
	c.mu.Unlock()
	circ.ctrlCond = simnet.NewCond(c.host.Clock(), &circ.ctrlMu)

	// CREATE/CREATED with the guard, read synchronously: the deliver
	// callback needs the first layer.
	guardSpan := sp.Child("circuit.hop")
	guardSpan.Note(path[0].Nickname)
	guardStart := c.host.Clock().Now()
	hs, msg, err := otr.NewClientHandshake([]byte(path[0].Fingerprint()), path[0].OnionKey)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := cell.WriteLink(circ.write, circ.circID, cell.CmdCreate, msg); err != nil {
		conn.Close()
		guardSpan.Fail(err)
		guardSpan.End()
		return nil, err
	}
	created, err := cell.Read(conn)
	if err == nil {
		circ.tapCells(-1, cell.Size)
	}
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

	circ.layers = []*otr.Layer{layer}
	circ.path = path[:1]
	conn.SetDeliverFunc(circ.onDeliver)

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
func (circ *Circuit) Path() []*dirauth.Descriptor {
	circ.mu.Lock()
	defer circ.mu.Unlock()
	return circ.path
}

// OnClose arranges for f to run once when the circuit is torn down, or at
// once if it already has been. f runs on whatever tears the circuit down,
// possibly the clock's dispatcher, so it must not block.
func (circ *Circuit) OnClose(f func()) {
	circ.ctrlMu.Lock()
	if !circ.closed.Load() {
		circ.onClose = append(circ.onClose, f)
		circ.ctrlMu.Unlock()
		return
	}
	circ.ctrlMu.Unlock()
	f()
}

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
	if _, err := circ.originate(hopEnd, cell.RelayHeader{Cmd: cell.RelayExtend}, data); err != nil {
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
	circ.sendMu.Lock()
	circ.mu.Lock()
	circ.layers = append(circ.layers, layer)
	circ.path = append(circ.path, hop)
	circ.mu.Unlock()
	circ.sendMu.Unlock()
	return nil
}

// clientBatchCells is the longest run the client originates: one
// Stream.Write leaves as runs of up to this many DATA cells, each sealed
// and encrypted in one crypto pass per layer.
const clientBatchCells = 16

// originate is the client's one way to put relay cells on the circuit.
// It packs hdr and data into a pooled run (DATA as up to
// clientBatchCells cells, any other command as one), seals and encrypts
// the run for to, and writes it to the guard link in one call. At a hop
// the run is sealed for the last hop and carries every layer's forward
// keystream; at the service layer the service, the relay side of the
// end-to-end layer, seals and encrypts it backward (the connecting client
// peels that as its last layer) before the circuit's own layers go on. It
// returns how much of data went out, so a writer can check its deadline
// between runs.
func (circ *Circuit) originate(to end, hdr cell.RelayHeader, data []byte) (int, error) {
	o := cell.GetOrigin()
	defer cell.PutOrigin(o)
	circ.sendMu.Lock()
	defer circ.sendMu.Unlock()
	if circ.isClosed() {
		return 0, ErrCircuitClosed
	}
	used, err := o.Pack(circ.circID, hdr, data, clientBatchCells)
	if err != nil {
		return 0, err
	}
	run := o.Payloads()
	if to == serviceEnd {
		circ.svc.layer.SealBackwardBatch(run, cell.DigestOffset)
		circ.svc.layer.ApplyBackwardBatch(run, &o.Scratch)
		for i := len(circ.layers) - 1; i >= 0; i-- {
			circ.layers[i].ApplyForwardBatch(run, &o.Scratch)
		}
	} else {
		otr.OnionCryptBatch(circ.layers, len(circ.layers)-1, run, cell.DigestOffset, &o.Scratch)
	}
	circ.client.m.cellsSent.Add(int64(len(run)))
	if err := circ.write(o.Frames()); err != nil {
		return 0, err
	}
	return used, nil
}

// write puts whole cells on the guard link and reports them to the tap.
// Called under sendMu, or before the circuit is shared.
func (circ *Circuit) write(frames []byte) error {
	n, err := circ.conn.Write(frames)
	circ.tapCells(+1, n)
	return err
}

// tapCells reports n bytes of cells crossing the guard link to the tap,
// one event per cell: traces count cells, not writes or deliveries.
func (circ *Circuit) tapCells(dir, n int) {
	if circ.tap != nil {
		now := circ.client.Clock().Now()
		for ; n >= cell.Size; n -= cell.Size {
			circ.tap(dir, cell.Size, now)
		}
	}
}

// SendDrop sends a long-range padding cell addressed to the last hop,
// carrying len junk bytes (capped at the cell data size). Used for
// client-originated cover traffic.
func (circ *Circuit) SendDrop(junk []byte) error {
	if len(junk) > cell.MaxRelayData {
		junk = junk[:cell.MaxRelayData]
	}
	_, err := circ.originate(hopEnd, cell.RelayHeader{Cmd: cell.RelayDrop}, junk)
	return err
}

func (circ *Circuit) isClosed() bool { return circ.closed.Load() }

// Close destroys the circuit (a deliberate local teardown; no hop is
// blamed).
func (circ *Circuit) Close() error { return circ.closeWithReason(nil) }

// closeWithReason tears the circuit down, recording cause when the death
// was abnormal. An abnormal death feeds every hop into the client's
// avoid list — the client cannot tell which hop failed from its side of
// the guard link, so all are briefly suspect. It may run in the deliver
// callback, so nothing here parks: the DESTROY goes out with WriteAsync,
// and a writer parked on the link wakes to the closed conn.
func (circ *Circuit) closeWithReason(cause error) error {
	circ.ctrlMu.Lock()
	if circ.closed.Load() {
		circ.ctrlMu.Unlock()
		return nil
	}
	circ.reason = cause
	circ.closed.Store(true)
	onClose := circ.onClose
	circ.onClose = nil
	circ.ctrlMu.Unlock()
	circ.ctrlCond.Broadcast()

	// The relay's end of the link keeps this conn, and through the
	// callback the circuit, reachable until it closes too.
	circ.conn.SetDeliverFunc(nil)
	if cell.WriteLink(circ.conn.WriteAsync, circ.circID, cell.CmdDestroy, nil) == nil {
		circ.tapCells(+1, cell.Size)
	}
	circ.conn.Close()

	circ.mu.Lock()
	streams := circ.streams
	circ.streams = map[uint16]*Stream{}
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
	for _, f := range onClose {
		f()
	}
	return nil
}

// Err reports why the circuit died: nil while it is alive or after a
// clean local Close, non-nil after an abnormal death (DESTROY from a
// relay, severed guard link, stalled control cell).
func (circ *Circuit) Err() error {
	circ.ctrlMu.Lock()
	defer circ.ctrlMu.Unlock()
	return circ.reason
}

// onDeliver is the guard link's deliver callback. data is a chunk lent
// for the call: stream delivery copies into the stream's queue, control
// cells and INTRODUCE2 payloads are copied, and FrameBuf copies the split
// cell it carries over.
func (circ *Circuit) onDeliver(data []byte, eof bool) {
	if len(data) > 0 && !circ.inBuf.Feed(data, circ.onRun) {
		return
	}
	if eof {
		circ.closeWithReason(errors.New("torclient: guard link lost: EOF"))
	}
}

// onRun handles one run of whole inbound cells.
func (circ *Circuit) onRun(frames []byte) bool {
	circ.tapCells(-1, len(frames))
	return circ.handleRun(&cell.Burst{N: len(frames) / cell.Size, Buf: frames})
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
// gathers from (the payload aliases it; valid only until return). A cell
// is recognized at a hop or, on a rendezvous circuit this client serves,
// at the service layer; from there on it takes one dispatch. At the
// service layer only stream cells count: BEGIN, DATA, END and DROP. A
// stream takes cells recognized at its own end only.
func (circ *Circuit) handleRelay(payload []byte, k int, pend *streamData) {
	circ.mu.Lock()
	at := hopEnd
	if otr.OnionDecrypt(circ.layers, payload, cell.RecognizedOffset, cell.DigestOffset) < 0 {
		svc := circ.svc
		if svc == nil {
			circ.mu.Unlock()
			return // garbled or stray cell; drop
		}
		// Possibly a cell at the service layer from a rendezvous client.
		svc.layer.ApplyForward(payload)
		if !cell.Recognized(payload) || !svc.layer.VerifyForward(payload, cell.DigestOffset) {
			circ.mu.Unlock()
			return
		}
		at = serviceEnd
	}
	hdr, data, err := cell.ParseRelay(payload)
	if err != nil || at == serviceEnd && !serviceCmd(hdr.Cmd) {
		circ.mu.Unlock()
		return
	}
	s := circ.streams[hdr.StreamID]
	if s != nil && s.at != at {
		s = nil
	}
	begun := false
	switch {
	case hdr.Cmd == cell.RelayEnd && s != nil:
		delete(circ.streams, hdr.StreamID)
	case hdr.Cmd == cell.RelayBegin && at == serviceEnd && circ.streams[hdr.StreamID] == nil:
		s, begun = newStream(circ, hdr.StreamID, serviceEnd), true
		s.open = true
		circ.streams[hdr.StreamID] = s
	}
	svc, onIntro2 := circ.svc, circ.onIntro2
	circ.mu.Unlock()
	if hdr.Cmd != cell.RelayData {
		pend.flush()
	}
	switch hdr.Cmd {
	case cell.RelayData:
		if s != nil {
			pend.add(s, k, len(data))
		}
	case cell.RelayBegin:
		if begun {
			// A deliver callback never sends: CONNECTED goes out from
			// the acceptor's goroutine, ahead of the acceptor.
			circ.client.Clock().Go(func() {
				if _, err := circ.originate(serviceEnd, cell.RelayHeader{StreamID: s.id, Cmd: cell.RelayConnected}, nil); err == nil {
					svc.acceptor(s)
				}
			})
		}
	case cell.RelayEnd:
		if s != nil {
			s.deliverEOF()
		} else if hdr.StreamID == 0 && at == hopEnd {
			// Control-level END (e.g. introduce failure): surface it.
			circ.pushCtrl(ctrlMsg{hdr: hdr, data: bytes.Clone(data)})
		}
	case cell.RelayConnected:
		if s != nil {
			s.connected()
		}
	case cell.RelayIntroduce2:
		if onIntro2 != nil {
			// onIntro2 may send, and a deliver callback never does.
			data := bytes.Clone(data)
			circ.client.Clock().Go(func() { onIntro2(data) })
		}
	case cell.RelayDrop:
		// Cover traffic: absorbed.
	default:
		circ.pushCtrl(ctrlMsg{hdr: hdr, data: bytes.Clone(data)})
	}
}

// serviceCmd reports whether the service layer takes cmd.
func serviceCmd(cmd cell.RelayCommand) bool {
	return cmd == cell.RelayBegin || cmd == cell.RelayData || cmd == cell.RelayEnd || cmd == cell.RelayDrop
}

// pushCtrl queues a control cell for awaitCtrl. A full queue drops it
// (the waiter times out).
func (circ *Circuit) pushCtrl(m ctrlMsg) {
	circ.ctrlMu.Lock()
	if len(circ.ctrlq) < 64 {
		circ.ctrlq = append(circ.ctrlq, m)
	}
	circ.ctrlMu.Unlock()
	circ.ctrlCond.Broadcast()
}

// awaitCtrl waits for a control message with the given relay command. The
// wait is bounded in virtual time (Client.CtrlTimeout) so detection of a
// stalled circuit scales with the emulation rather than the wall clock.
func (circ *Circuit) awaitCtrl(cmd cell.RelayCommand) (ctrlMsg, error) {
	expired, stop := circ.client.ctrlDeadline(circ.ctrlCond)
	defer stop()
	circ.ctrlMu.Lock()
	for {
		for len(circ.ctrlq) > 0 {
			m := circ.ctrlq[0]
			circ.ctrlq[0] = ctrlMsg{}
			circ.ctrlq = circ.ctrlq[1:]
			switch m.hdr.Cmd {
			case cmd:
				circ.ctrlMu.Unlock()
				return m, nil
			case cell.RelayEnd:
				circ.ctrlMu.Unlock()
				var end cell.EndPayload
				cell.DecodeControl(m.data, &end)
				return ctrlMsg{}, fmt.Errorf("torclient: circuit-level END: %s", end.Reason)
			}
			// Unrelated control message: keep waiting.
		}
		if circ.isClosed() {
			circ.ctrlMu.Unlock()
			return ctrlMsg{}, ErrCircuitClosed
		}
		if *expired {
			circ.ctrlMu.Unlock()
			// A stalled control cell is as fatal as a DESTROY: kill the
			// circuit so its hops land on the avoid list.
			err := fmt.Errorf("torclient: timeout waiting for %v", cmd)
			circ.closeWithReason(err)
			return ctrlMsg{}, err
		}
		circ.ctrlCond.Wait()
	}
}
