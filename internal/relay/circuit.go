package relay

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// circuit is this relay's state for one circuit: the CREATE handshake,
// recognition and dispatch, EXTEND, exit streams, the hidden-service
// duties, teardown. Its links are simnet conns served by deliver
// callbacks on both clocks (ingress.go), and everything it sends leaves
// through WriteAsync, which never parks the caller.
//
// The forward direction has one owner at a time — the client link's
// deliver callback, or the callback of a dial it paused for — so forward
// crypto needs no lock. The backward direction is serialized by bwMu,
// held across seal/encrypt + write so keystream order equals wire order;
// the cells this hop originates go through originate, in a pooled run.
type circuit struct {
	relay      *Relay
	conn       simnet.LightConn // inbound link, toward the circuit origin
	next       simnet.LightConn // toward the next hop, nil until an EXTEND's dial; guarded by mu
	circID     uint32
	nextCircID uint32     // guarded by mu
	layer      *otr.Layer // nil until the CREATE handshake is done; set under mu

	destroyed atomic.Bool

	mu       sync.Mutex
	extended bool     // the next hop answered the CREATE (EXTENDED sent)
	dial     *dialing // non-nil while an EXTEND or BEGIN waits for its dial
	joined   *circuit
	streams  map[uint16]simnet.LightConn // nil until the first BEGIN
	cookie   string                      // rendezvous cookie (hex) this circuit registered
	introID  string                      // service ID this circuit is the intro point for

	bwMu sync.Mutex // the backward direction's crypto and writes

	inBuf cell.FrameBuf // client-link chunk→cell reassembly (forward owner only)
	bwBuf cell.FrameBuf // next-hop-link reassembly (its deliver callback only)
}

// dialing is an EXTEND or BEGIN waiting out its dial's round trip — the
// two commands that connect somewhere. The client link is paused for it
// (the stall's SetDeliverFunc(nil)), so nothing else arrives; rest keeps
// what was left of the delivery behind the command, whole RELAY cells
// still encrypted, and the dial's callback finishes them in order before
// it resumes the link, which keeps decrypt order equal to wire order. A
// DESTROY in that delivery waits behind them too: the callback tears the
// circuit down instead of resuming the link.
type dialing struct {
	target   string
	then     func(simnet.LightConn, error) bool // the command's second half; false kills the circuit
	started  bool                               // guarded by the circuit's mu
	rest     []byte                             // guarded by the circuit's mu
	teardown bool                               // owed after rest; guarded by the circuit's mu
}

// sendLink puts a link-level cell (CREATED, DESTROY) on the client link,
// in order with the relay cells.
func (c *circuit) sendLink(cmd cell.Command, payload []byte) error {
	c.bwMu.Lock()
	defer c.bwMu.Unlock()
	return cell.WriteLink(c.conn.WriteAsync, c.circID, cmd, payload)
}

// create answers a link's first cell, which must be CREATE.
func (c *circuit) create(wire []byte) bool {
	r := c.relay
	if cell.WireCmd(wire) != cell.CmdCreate {
		return false
	}
	reply, keys, err := otr.ServerHandshake([]byte(r.Fingerprint()), r.onion, cell.WirePayload(wire)[:otr.PublicKeyLen])
	if err != nil {
		r.logf("handshake failed: %v", err)
		return false
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		return false
	}
	return c.establish(cell.WireCircID(wire), layer) && c.sendLink(cell.CmdCreated, reply) == nil
}

// establish counts the circuit open once its handshake yielded layer, and
// reports whether it did. On a wall-backed clock a sever's EOF runs
// teardown beside the delivery in progress; under mu, teardown either
// finds the circuit counted or leaves it uncounted for good.
func (c *circuit) establish(circID uint32, layer *otr.Layer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed.Load() {
		return false
	}
	c.circID, c.layer = circID, layer
	c.relay.m.circCreated.Inc()
	c.relay.m.openCircs.Add(1)
	return true
}

// --- forward direction -------------------------------------------------------

// relayCells reduces a run read off a link to the RELAY cells a circuit
// acts on, in order and contiguous from the start of the burst (the
// common run is all RELAY and is left as it is). Link padding is
// dropped. The first cell with any other command ends the run — it and
// everything behind it is discarded — and its command is returned;
// CmdRelay means the whole run was taken. With strict unset, commands
// other than DESTROY are skipped like padding instead of ending the run.
func relayCells(run *cell.Burst, strict bool) cell.Command {
	kept := 0
	for k := 0; k < run.N; k++ {
		switch cmd := cell.WireCmd(run.Frame(k)); {
		case cmd == cell.CmdRelay:
			if kept != k {
				copy(run.Frame(kept), run.Frame(k))
			}
			kept++
		case cmd == cell.CmdDestroy || strict && cmd != cell.CmdPadding:
			run.N = kept
			return cmd
		}
	}
	run.N = kept
	return cell.CmdRelay
}

// behindDial queues frames behind the dial the circuit awaits and reports
// whether it did (or the circuit is gone): the runs left in the delivery
// that met the command, and whatever a caller that feeds the circuit
// directly goes on feeding while the link is paused.
func (c *circuit) behindDial(frames []byte) bool {
	if len(frames) == 0 || c.destroyed.Load() {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dial == nil {
		return false
	}
	c.dial.rest = append(c.dial.rest, frames...)
	return true
}

// finishRun completes one run of RELAY frames from the client link, cell
// by cell in order: peel, recognition check, digest verification. What
// the run shares is the hand-offs around them. Consecutive cells addressed
// past this hop form a span that leaves through one write (forwardSpan);
// consecutive recognized DATA cells of one stream are gathered in place
// into one destination write. Both are flushed before any other
// recognized command is dispatched and at the end of the run, so what a
// stream's destination and the next hop see — DATA before END, CREATE
// before the cells sent behind an EXTEND — is in the order the cells
// arrived. An EXTEND or BEGIN that dials ends the run: the cells behind
// it, not yet peeled, wait in its dialing.
func (c *circuit) finishRun(frames []byte) {
	r := c.relay
	run := cell.Burst{N: len(frames) / cell.Size, Buf: frames}
	// The DATA of consecutive cells of one exit stream, gathered in place
	// in the run (the relay-side twin of torclient's streamData).
	var data cell.DataRun
	var stream uint16
	flush := func() {
		if !data.Empty() {
			c.handleData(stream, data.Take(&run))
		}
	}
	span := 0 // first cell of the forward span being collected
	for k := 0; k < run.N; k++ {
		payload := cell.WirePayload(run.Frame(k))
		c.layer.ApplyForward(payload)
		if !cell.Recognized(payload) || !c.layer.VerifyForward(payload, cell.DigestOffset) {
			continue // addressed past this hop: joins the span
		}
		c.forwardSpan(frames[span*cell.Size : k*cell.Size])
		span = k + 1
		r.m.recognized.Inc()
		hdr, body, err := cell.ParseRelay(payload)
		if err == nil && hdr.Cmd == cell.RelayData {
			if hdr.StreamID != stream {
				flush()
				stream = hdr.StreamID
			}
			data.Add(&run, k, len(body))
			continue
		}
		flush()
		if err != nil {
			r.logf("bad relay payload: %v", err)
			c.teardown()
			return
		}
		d, ok := c.dispatch(hdr, body)
		if d != nil {
			c.await(d, frames[(k+1)*cell.Size:])
			return
		}
		if !ok {
			c.teardown()
			return
		}
	}
	c.forwardSpan(frames[span*cell.Size:])
	flush()
}

// forwardSpan sends a contiguous span of cells addressed past this hop
// on their way: circuit-ID rewrite and one write toward the next hop, or
// — on a rendezvous splice — one backward run on the joined circuit. The
// span stays the caller's (both paths copy).
func (c *circuit) forwardSpan(frames []byte) {
	if len(frames) == 0 {
		return
	}
	r := c.relay
	n := int64(len(frames) / cell.Size)
	c.mu.Lock()
	next, nextID, joined := c.next, c.nextCircID, c.joined
	c.mu.Unlock()
	var err error
	switch {
	case next != nil:
		for off := 0; off < len(frames); off += cell.Size {
			cell.SetWireCircID(frames[off:], nextID)
		}
		r.m.fwdCells.Add(n)
		err = next.WriteAsync(frames)
	case joined != nil:
		// Rendezvous splice: the still-encrypted payloads continue as
		// backward cells on the joined circuit.
		err = joined.backwardRun(frames)
	default:
		r.logf("unrecognized relay cell at last hop, dropping circuit")
		r.m.dropped.Add(n)
		c.teardown()
		return
	}
	if err != nil {
		c.teardown()
	}
}

// await makes d the circuit's dial, with rest, what is left of the run
// after its command, in front of the cells that wait behind it. It is
// started at the end of the delivery (startDial). Cells queued behind a
// dial whose callback is finishing them move behind the new one.
func (c *circuit) await(d *dialing, rest []byte) {
	d.rest = append([]byte(nil), rest...)
	c.mu.Lock()
	if prev := c.dial; prev != nil {
		d.rest, prev.rest = append(d.rest, prev.rest...), nil
		d.teardown, prev.teardown = prev.teardown, false
	}
	c.dial = d
	c.mu.Unlock()
}

// teardownBehindDial owes the circuit's teardown to the dial it awaits,
// if one does, so the cells queued behind the dial go first, in the order
// they arrived. It reports whether it did.
func (c *circuit) teardownBehindDial() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dial != nil {
		c.dial.teardown = true
	}
	return c.dial != nil
}

// startDial pauses the client link and starts the dial a command awaits,
// if one does and has not started; it reports whether a dial is under
// way. Like a stall, it must be the last thing a deliver callback does.
func (c *circuit) startDial() bool {
	c.mu.Lock()
	d := c.dial
	start := d != nil && !d.started && !c.destroyed.Load()
	if start {
		d.started = true
	}
	c.mu.Unlock()
	if start {
		c.conn.SetDeliverFunc(nil)
		c.relay.host.DialFunc(d.target, func(conn simnet.LightConn, err error) { c.dialed(d, conn, err) })
	}
	return d != nil
}

// dialed is a dial's callback: the command's second half, then the cells
// that waited behind it, then the client link again. After a teardown it
// only closes the fresh conn.
func (c *circuit) dialed(d *dialing, conn simnet.LightConn, err error) {
	if c.destroyed.Load() {
		if conn != nil {
			conn.Close()
		}
		return
	}
	if !d.then(conn, err) {
		c.teardown()
		return
	}
	for !c.destroyed.Load() {
		c.mu.Lock()
		rest, latest, owed := d.rest, c.dial, d.teardown
		d.rest = nil
		if latest == d && len(rest) == 0 {
			c.dial = nil
		}
		c.mu.Unlock()
		switch {
		case latest != d: // a command in the rest awaits a dial of its own
			c.startDial()
			return
		case len(rest) == 0 && owed:
			c.teardown()
			return
		case len(rest) == 0:
			c.conn.SetDeliverFunc(c.onDeliver)
			return
		}
		c.finishRun(rest)
	}
}

// dispatch acts on one recognized relay cell other than DATA, which
// finishRun gathers and hands to handleData a run at a time. EXTEND and
// BEGIN may return the dial they finish in; false kills the circuit.
func (c *circuit) dispatch(hdr cell.RelayHeader, data []byte) (*dialing, bool) {
	switch hdr.Cmd {
	case cell.RelayExtend:
		return c.handleExtend(data)
	case cell.RelayBegin:
		return c.handleBegin(hdr.StreamID, data)
	case cell.RelayEnd:
		c.closeStream(hdr.StreamID)
		return nil, true
	case cell.RelayDrop:
		// Cover traffic: absorbed here by design.
		return nil, true
	case cell.RelayEstablishIntro:
		return nil, c.handleEstablishIntro(data)
	case cell.RelayIntroduce1:
		return nil, c.handleIntroduce1(data)
	case cell.RelayEstablishRendezvous:
		return nil, c.handleEstablishRendezvous(data)
	case cell.RelayRendezvous1:
		return nil, c.handleRendezvous1(data)
	default:
		c.relay.logf("unhandled relay command %v", hdr.Cmd)
		return nil, true
	}
}

// handleExtend dials the requested next hop; once connected it sends the
// client's CREATE there and attaches the link, and the next hop's CREATED
// comes back as EXTENDED (onBackward).
func (c *circuit) handleExtend(data []byte) (*dialing, bool) {
	r := c.relay
	var ext cell.ExtendPayload
	if err := cell.DecodeControl(data, &ext); err != nil {
		return nil, false
	}
	c.mu.Lock()
	already := c.next != nil
	c.mu.Unlock()
	if already {
		r.logf("EXTEND on already-extended circuit")
		return nil, false
	}
	var id [4]byte
	rand.Read(id[:])
	nextID := binary.BigEndian.Uint32(id[:])
	sp := r.reg.StartSpan("relay.extend")
	sp.Note(ext.Addr)
	return &dialing{target: ext.Addr, then: func(next simnet.LightConn, err error) bool {
		defer sp.End()
		if err == nil && (cell.WriteLink(next.WriteAsync, nextID, cell.CmdCreate, ext.Handshake) != nil || !c.attachNext(next, nextID)) {
			next.Close()
			err = net.ErrClosed
		}
		if err != nil {
			r.logf("extend to %s: %v", ext.Addr, err)
			r.m.extendFails.Inc()
			sp.Fail(err)
		}
		return err == nil
	}}, true
}

// extendDone answers the EXTEND with the next hop's first cell, which
// must be CREATED (the mirror of onForward's CREATE).
func (c *circuit) extendDone(wire []byte) bool {
	r := c.relay
	if cell.WireCmd(wire) != cell.CmdCreated {
		r.m.extendFails.Inc()
		return false
	}
	c.mu.Lock()
	c.extended = true
	c.mu.Unlock()
	r.m.extends.Inc()
	extended, err := cell.EncodeControl(&cell.ExtendedPayload{
		Reply: cell.WirePayload(wire)[:otr.PublicKeyLen+otr.AuthLen],
	})
	return err == nil && c.originate(cell.RelayHeader{Cmd: cell.RelayExtended}, extended) == nil
}

// handleBegin opens an exit stream, enforcing the exit policy. The special
// host "localhost" resolves to the relay's own machine, which is how
// clients reach a co-resident Bento server through an exit circuit.
func (c *circuit) handleBegin(streamID uint16, data []byte) (*dialing, bool) {
	r := c.relay
	var begin cell.BeginPayload
	if err := cell.DecodeControl(data, &begin); err != nil {
		return nil, false
	}
	host, port, ok := splitTarget(begin.Target)
	if !ok {
		return nil, c.endStream(streamID, "bad target")
	}
	policyHost := host
	if host == "localhost" {
		host = r.host.Name()
	}
	if !r.cfg.ExitPolicy.Allows(policyHost, port) {
		r.logf("exit policy refuses %s:%d", policyHost, port)
		r.m.streamsRefused.Inc()
		return nil, c.endStream(streamID, "exit policy refused")
	}
	return &dialing{target: fmt.Sprintf("%s:%d", host, port), then: func(remote simnet.LightConn, err error) bool {
		if err != nil {
			r.m.streamsRefused.Inc()
			return c.endStream(streamID, "connect failed")
		}
		c.mu.Lock()
		if c.destroyed.Load() {
			c.mu.Unlock()
			remote.Close()
			return false
		}
		if c.streams == nil {
			c.streams = make(map[uint16]simnet.LightConn)
		}
		c.streams[streamID] = remote
		c.mu.Unlock()

		r.m.streamsOpened.Inc()
		// CONNECTED goes out before anything reads the destination: one
		// that answers and hangs up at once must not get its DATA or END
		// onto the circuit ahead of it (the client would read "stream
		// refused").
		if c.originate(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayConnected}, nil) != nil {
			c.closeStream(streamID)
			return false
		}
		c.attachStream(streamID, remote)
		return true
	}}, true
}

// handleData writes the gathered data of one or more consecutive DATA
// cells of a stream to its destination in one write.
func (c *circuit) handleData(streamID uint16, data []byte) {
	c.mu.Lock()
	remote := c.streams[streamID]
	c.mu.Unlock()
	if remote == nil {
		// Stream already closed; tolerate in-flight data.
		return
	}
	if remote.WriteAsync(data) != nil {
		c.closeStream(streamID)
	}
}

func (c *circuit) closeStream(streamID uint16) {
	c.mu.Lock()
	remote := c.streams[streamID]
	delete(c.streams, streamID)
	c.mu.Unlock()
	if remote != nil {
		remote.Close()
	}
}

// endStream tells the client a stream (0: the circuit's pending control
// request) is over, and why.
func (c *circuit) endStream(streamID uint16, reason string) bool {
	end, err := cell.EncodeControl(&cell.EndPayload{Reason: reason})
	if err != nil {
		return false
	}
	return c.originate(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayEnd}, end) == nil
}

// --- backward direction ------------------------------------------------------

// backwardRun applies this hop's backward keystream to a run of whole
// wire frames in place, restamps their circuit ID, and writes the run
// toward the client — one bwMu hold and one write for the run. The
// frames are the caller's buffer.
func (c *circuit) backwardRun(frames []byte) error {
	if len(frames) == 0 {
		return nil
	}
	c.relay.m.bwdCells.Add(int64(len(frames) / cell.Size))
	c.bwMu.Lock()
	defer c.bwMu.Unlock()
	for off := 0; off < len(frames); off += cell.Size {
		wire := frames[off : off+cell.Size]
		c.layer.ApplyBackward(cell.WirePayload(wire))
		cell.SetWireCircID(wire, c.circID)
		cell.SetWireCmd(wire, cell.CmdRelay)
	}
	return c.conn.WriteAsync(frames)
}

// bwBatchCells is the longest run this hop originates: as many cells as
// one simnet chunk (32 KiB) carries, so one delivery from an exit
// destination (itself at most a chunk) leaves as one or two runs, each
// sealed and encrypted in one crypto pass and sent in one write. Smaller
// runs cost every hop behind the exit one delivery each.
const bwBatchCells = cell.OriginCells

// originate is the relay's one way to originate relay cells toward the
// client: control replies, stream ends, and the DATA of an exit stream.
// It packs hdr and data into a pooled run (DATA as up to bwBatchCells
// cells a run, any other command as one cell), seals the run with the
// backward digest, encrypts it with one keystream pass, and writes it
// with one WriteAsync, until data is sent. A cell that cannot even be
// queued means a dead client link.
func (c *circuit) originate(hdr cell.RelayHeader, data []byte) error {
	o := cell.GetOrigin()
	defer cell.PutOrigin(o)
	c.bwMu.Lock()
	defer c.bwMu.Unlock()
	for {
		used, err := o.Pack(c.circID, hdr, data, bwBatchCells)
		if err != nil {
			return err
		}
		run := o.Payloads()
		c.relay.m.originated.Add(int64(len(run)))
		c.layer.SealBackwardBatch(run, cell.DigestOffset)
		c.layer.ApplyBackwardBatch(run, &o.Scratch)
		if err := c.conn.WriteAsync(o.Frames()); err != nil || used == len(data) {
			return err
		}
		data = data[used:]
	}
}

// --- hidden-service duties ---------------------------------------------------

// register enters the circuit into an HS table of the relay's under key
// and notes the key in slot (the circuit's cookie or introID) for
// teardown. A circuit holds at most one registration of a kind: a second
// one is a protocol violation, not a reason to forget the first.
func (c *circuit) register(table map[string]*circuit, slot *string, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *slot != "" || c.destroyed.Load() {
		return false
	}
	*slot = key
	c.relay.mu.Lock()
	table[key] = c
	c.relay.mu.Unlock()
	return true
}

func (c *circuit) handleEstablishIntro(data []byte) bool {
	r := c.relay
	var est cell.EstablishIntroPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if !verifyIntroSig(est) {
		r.logf("ESTABLISH_INTRO bad signature for %s", est.ServiceID)
		return false
	}
	if !c.register(r.intros, &c.introID, est.ServiceID) {
		return false
	}
	return c.originate(cell.RelayHeader{Cmd: cell.RelayIntroEstablished}, nil) == nil
}

func (c *circuit) handleIntroduce1(data []byte) bool {
	r := c.relay
	var intro cell.Introduce1Payload
	if err := cell.DecodeControl(data, &intro); err != nil {
		return false
	}
	r.mu.Lock()
	svc := r.intros[intro.ServiceID]
	r.mu.Unlock()
	if svc == nil {
		r.logf("INTRODUCE1 for unknown service %s", intro.ServiceID)
		return c.endStream(0, "no such service")
	}
	// Forward the opaque inner payload to the service as INTRODUCE2.
	if err := svc.originate(cell.RelayHeader{Cmd: cell.RelayIntroduce2}, intro.Inner); err != nil {
		return c.endStream(0, "service unreachable")
	}
	r.m.introsForwarded.Inc()
	return c.originate(cell.RelayHeader{Cmd: cell.RelayIntroduceAck}, nil) == nil
}

func (c *circuit) handleEstablishRendezvous(data []byte) bool {
	var est cell.EstablishRendezvousPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if len(est.Cookie) < 8 || !c.register(c.relay.rendezvous, &c.cookie, hex.EncodeToString(est.Cookie)) {
		return false
	}
	return c.originate(cell.RelayHeader{Cmd: cell.RelayRendezvousEstablished}, nil) == nil
}

func (c *circuit) handleRendezvous1(data []byte) bool {
	r := c.relay
	var rv cell.Rendezvous1Payload
	if err := cell.DecodeControl(data, &rv); err != nil {
		return false
	}
	// Claimed under one hold: concurrent RENDEZVOUS1s with one cookie
	// splice exactly one pair of circuits.
	cookie := hex.EncodeToString(rv.Cookie)
	r.mu.Lock()
	client := r.rendezvous[cookie]
	delete(r.rendezvous, cookie)
	r.mu.Unlock()
	if client == nil {
		r.logf("RENDEZVOUS1 with unknown cookie")
		return false
	}
	// Splice the two circuits.
	client.mu.Lock()
	client.joined, client.cookie = c, ""
	client.mu.Unlock()
	c.mu.Lock()
	c.joined = client
	c.mu.Unlock()

	reply, err := cell.EncodeControl(&cell.Rendezvous2Payload{Reply: rv.Reply})
	if err != nil {
		return false
	}
	r.m.rendSplices.Inc()
	return client.originate(cell.RelayHeader{Cmd: cell.RelayRendezvous2}, reply) == nil
}

// verifyIntroSig checks an ESTABLISH_INTRO self-signature: the service
// ID is the hex public key and must have signed the registration.
func verifyIntroSig(est cell.EstablishIntroPayload) bool {
	pub, err := hex.DecodeString(est.ServiceID)
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, []byte("establish-intro:"+est.ServiceID), est.Signature)
}

// --- teardown ----------------------------------------------------------------

// teardown releases everything the circuit holds. It may run in a
// deliver callback: nothing it does parks, and every link it closes
// sends what was written to it first. The circuit is marked destroyed,
// uncounted and unregistered in one hold of mu, so whoever sees it
// destroyed under mu sees all three done.
func (c *circuit) teardown() {
	r := c.relay
	c.mu.Lock()
	if !c.destroyed.CompareAndSwap(false, true) {
		c.mu.Unlock()
		return
	}
	nextID, next := c.nextCircID, c.next
	joined, streams := c.joined, c.streams
	c.joined, c.streams = nil, nil
	if c.layer != nil {
		r.m.circDestroyed.Inc()
		r.m.openCircs.Add(-1)
	}
	// The HS registrations go by key, and only what is still this
	// circuit's: a sweep per teardown is quadratic across a drain, and a
	// service that re-established on a new circuit keeps its registration
	// when the old one goes.
	r.mu.Lock()
	if c.cookie != "" && r.rendezvous[c.cookie] == c {
		delete(r.rendezvous, c.cookie)
	}
	if c.introID != "" && r.intros[c.introID] == c {
		delete(r.intros, c.introID)
	}
	r.mu.Unlock()
	c.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
	if next != nil {
		cell.WriteLink(next.WriteAsync, nextID, cell.CmdDestroy, nil)
		next.Close()
	}
	c.conn.Close()
	if joined != nil {
		joined.mu.Lock()
		joined.joined = nil
		joined.mu.Unlock()
		// Rendezvous teardown propagates to the other side, as a DESTROY
		// does on a normal circuit.
		joined.destroyFromBehind()
	}
}

// destroyFromBehind tears the circuit down when the next hop vanished:
// the client is told with a DESTROY, then everything unwinds.
func (c *circuit) destroyFromBehind() {
	if c.destroyed.Load() {
		return
	}
	c.sendLink(cell.CmdDestroy, nil)
	c.teardown()
}

// splitTarget splits a BEGIN target, "host:port". The port is decimal
// digits only, 1 to 65535: the target is a client's.
func splitTarget(s string) (string, int, bool) {
	i := strings.LastIndex(s, ":")
	if i <= 0 {
		return "", 0, false
	}
	p := s[i+1:]
	port, err := strconv.Atoi(p)
	if err != nil || p[0] < '0' || p[0] > '9' || port < 1 || port > 65535 {
		return "", 0, false
	}
	return s[:i], port, true
}
