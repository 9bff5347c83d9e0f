package relay

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// One circuit state machine, two transports (DESIGN.md §13.1).
//
// circuit is the relay's protocol for one circuit — the CREATE handshake,
// recognition and dispatch, EXTEND, exit streams, the hidden-service
// duties, teardown — and it is the only copy. How bytes reach it and
// leave it is a transport's business: the goroutine transport
// (datapath.go: link readers, affinity workers with batched crypto, spill
// queues) and the light transport (ingress.go: deliver callbacks and
// WriteAsync on the event clock) each embed a circuit and implement the
// interface below. Nothing in this file asks which one it is talking to.

// transport is what a circuit asks of the links under it. Runs of whole
// wire frames are the unit in both directions: a transport hands inbound
// runs to admit + finishRun and to backwardRun, and the circuit hands
// outbound runs back through the write methods. frames and p stay the caller's; every write copies or
// has written them by the time it returns. mayBlock is the caller's
// answer to "may I be stalled on a full link?": a transport's cell
// handlers (affinity worker, dispatcher callback) say no, goroutines that
// serve one circuit (a helper, a backward pump, teardown) say yes.
type transport interface {
	// writeClient sends a run toward the circuit's origin. Callers hold
	// bwMu, so crypto order is wire order.
	writeClient(frames []byte, mayBlock bool) error
	// writeNext sends a run toward the next hop (attachNext came first).
	writeNext(frames []byte, mayBlock bool) error
	// writeConn writes to a conn that is not one of the circuit's links:
	// an exit destination, or a next hop still inside its CREATE exchange.
	writeConn(conn net.Conn, p []byte) error
	// attachNext makes next, whose CREATED has been read, the next-hop
	// link: from here on its cells reach backwardRun and its end
	// destroyFromBehind. False if the link cannot be served or the circuit
	// is torn down (checked under mu, so teardown either closes the link
	// or prevents it).
	attachNext(next net.Conn) bool
	// attachStream starts turning the destination's bytes into backward
	// DATA cells, and its hang-up into streamEOF.
	attachStream(streamID uint16, remote net.Conn)
	// sever closes the client link so that the circuit is torn down: at
	// once, or — mayBlock — behind what was written to it.
	sever(mayBlock bool)
	// closeLinks releases the links at teardown, the next hop's behind
	// what was written to it.
	closeLinks()
}

// circuit is this relay's state for one circuit. The forward direction
// has one owner at a time — the transport's cell handler, or a helper
// while one runs (mu guards the hand-off) — so forward crypto needs no
// lock. The backward direction is serialized by bwMu, held across
// seal/encrypt + writeClient so keystream order equals wire order.
type circuit struct {
	relay      *Relay
	t          transport
	serial     uint64 // key in the relay's circuit table (unique, unlike circID)
	circID     uint32
	nextCircID uint32     // guarded by mu
	layer      *otr.Layer // nil until the CREATE handshake is done

	destroyed atomic.Bool

	mu       sync.Mutex
	extended bool    // a next hop is attached
	helper   *helper // non-nil while a helper owns the forward direction
	joined   *circuit
	streams  map[uint16]net.Conn // nil until the first BEGIN
	cookie   string              // rendezvous cookie (hex) this circuit registered
	introID  string              // service ID this circuit is the intro point for

	bwMu   sync.Mutex
	bwWire [cell.Size]byte // backward originate scratch, guarded by bwMu
}

// helper is the hand-off to a goroutine that runs a circuit's EXTEND or
// BEGIN — the two commands that dial and wait — so that no cell handler
// ever does. While it runs, inbound runs queue behind it instead of being
// processed, and it drains them in arrival order when the command is
// done, which keeps decrypt order equal to wire order. The queue counts
// in cells and is capped at maxSpillCells: a client that floods a circuit
// whose next hop never answers loses the circuit, not the relay's memory.
type helper struct {
	head    [cell.Size]byte   // the recognized, verified cell that needs to block
	q       simnet.ChunkQueue // frames behind it, guarded by the circuit's mu
	plain   int               // leading bytes of q that are already peeled
	space   sync.Cond         // on the circuit's mu: the queue shrank, or is gone
	pending net.Conn          // the next hop whose CREATED the helper is waiting for
}

// drop releases whatever is queued.
func (h *helper) drop() {
	var b [8 * cell.Size]byte
	for h.q.Len() > 0 {
		h.q.Read(b[:])
	}
	h.plain = 0
}

func (c *circuit) init(r *Relay, t transport) {
	c.relay, c.t, c.serial = r, t, r.circSerial.Add(1)
}

// linkFrame builds one link-level cell.
func linkFrame(circID uint32, cmd cell.Command, payload []byte) (f [cell.Size]byte) {
	cell.SetWireCircID(f[:], circID)
	cell.SetWireCmd(f[:], cmd)
	copy(cell.WirePayload(f[:]), payload)
	return f
}

// sendLink puts a link-level cell (CREATED, DESTROY) on the client link,
// in order with the relay cells.
func (c *circuit) sendLink(cmd cell.Command, payload []byte) error {
	f := linkFrame(c.circID, cmd, payload)
	c.bwMu.Lock()
	defer c.bwMu.Unlock()
	return c.t.writeClient(f[:], true)
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
	c.establish(cell.WireCircID(wire), layer)
	return c.sendLink(cell.CmdCreated, reply) == nil
}

// establish registers the circuit once its handshake yielded layer.
func (c *circuit) establish(circID uint32, layer *otr.Layer) {
	c.circID, c.layer = circID, layer
	c.relay.circuits.Put(c.serial, c)
	c.relay.m.circCreated.Inc()
	c.relay.m.openCircs.Add(1)
}

// kill severs the circuit at once: protocol violations and dead links.
func (c *circuit) kill() { c.t.sever(false) }

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

// admit reports whether the caller may process frames now. While a helper
// owns the forward direction it does not: the frames are queued behind
// the helper — copied; plain says they are already peeled, which only
// the runs of the pass that started the helper are — or, past the cap,
// the circuit is killed and the cells counted as dropped.
func (c *circuit) admit(frames []byte, plain bool) bool {
	if len(frames) == 0 || c.destroyed.Load() {
		return false
	}
	c.mu.Lock()
	h := c.helper
	if h == nil {
		c.mu.Unlock()
		return true
	}
	lost := 0
	if queued := h.q.Len() / cell.Size; queued+len(frames)/cell.Size > maxSpillCells {
		lost = queued + len(frames)/cell.Size
		h.drop()
	} else {
		h.q.Write(frames)
		if plain {
			h.plain += len(frames)
		}
	}
	c.mu.Unlock()
	if lost > 0 {
		c.relay.logf("%d cells queued behind a blocked EXTEND or BEGIN, dropping circuit", lost)
		c.relay.m.dropped.Add(int64(lost))
		c.kill()
	}
	return false
}

// finishRun completes one run of RELAY frames from the client link, cell
// by cell in order; the caller has been admitted. The first peeled bytes
// have had this hop's layer removed already (a transport that peels in
// batches passes len(frames)); the rest is peeled here. Every cell gets
// its own recognition check and digest verification; what the run shares
// is the hand-offs around them. Consecutive cells addressed past this hop
// form a span that leaves through one write (forwardSpan); consecutive
// recognized DATA cells of one stream are gathered in place into one
// destination write. Both are flushed before any other recognized command
// is dispatched and at the end of the run, so what a stream's destination
// and the next hop see — DATA before END, CREATE before the cells sent
// behind an EXTEND — is in the order the cells arrived. A command that
// blocks, met by a caller that may not, starts a helper that takes the
// run from that cell on; finishRun then reports true, and the caller must
// admit again whatever else it has peeled.
func (c *circuit) finishRun(frames []byte, peeled int, mayBlock bool) (handedOff bool) {
	r := c.relay
	for off := peeled; off < len(frames); off += cell.Size {
		c.layer.ApplyForward(cell.WirePayload(frames[off : off+cell.Size]))
	}
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
		if !cell.Recognized(payload) || !c.layer.VerifyForward(payload, cell.DigestOffset) {
			continue // addressed past this hop: joins the span
		}
		c.forwardSpan(frames[span*cell.Size:k*cell.Size], mayBlock)
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
		switch {
		case err != nil:
			r.logf("bad relay payload: %v", err)
		case !mayBlock && (hdr.Cmd == cell.RelayExtend || hdr.Cmd == cell.RelayBegin):
			c.startHelper(frames[k*cell.Size:])
			return true
		case c.dispatch(hdr, body):
			continue
		}
		c.kill()
		return false
	}
	c.forwardSpan(frames[span*cell.Size:], mayBlock)
	flush()
	return false
}

// forwardSpan sends a contiguous span of cells addressed past this hop
// on their way: circuit-ID rewrite and one write toward the next hop, or
// — on a rendezvous splice — one backward run on the joined circuit. The
// span stays the caller's (both paths copy).
func (c *circuit) forwardSpan(frames []byte, mayBlock bool) {
	if len(frames) == 0 {
		return
	}
	r := c.relay
	n := int64(len(frames) / cell.Size)
	c.mu.Lock()
	extended, nextID, joined := c.extended, c.nextCircID, c.joined
	c.mu.Unlock()
	var err error
	switch {
	case extended:
		for off := 0; off < len(frames); off += cell.Size {
			cell.SetWireCircID(frames[off:], nextID)
		}
		r.m.fwdCells.Add(n)
		err = c.t.writeNext(frames, mayBlock)
	case joined != nil:
		// Rendezvous splice: the still-encrypted payloads continue as
		// backward cells on the joined circuit.
		err = joined.backwardRun(frames, mayBlock)
	default:
		r.logf("unrecognized relay cell at last hop, dropping circuit")
		r.m.dropped.Add(n)
		c.kill()
		return
	}
	if err != nil {
		c.kill()
	}
}

// startHelper hands the forward direction to a new helper goroutine. rest
// is what is left of the run being finished, peeled, from the cell that
// needs to block on. The helper is a real goroutine outside the event
// graph, so the park-side bridge is held open across its lifetime —
// without it, settle elision lets virtual time sprint past the helper
// before the OS scheduler ever runs it.
func (c *circuit) startHelper(rest []byte) {
	h := &helper{plain: len(rest) - cell.Size}
	h.space.L = &c.mu
	copy(h.head[:], rest)
	c.mu.Lock()
	h.q.Write(rest[cell.Size:])
	c.helper = h
	c.mu.Unlock()
	release := c.relay.host.Clock().Blocking()
	go func() {
		defer release()
		c.runHelper(h)
	}()
}

// runHelper dispatches the cell that needed to block, then finishes what
// queued behind it, a burst at a time, and retires once the queue is
// empty: it is the only forward-path context while c.helper is set.
func (c *circuit) runHelper(h *helper) {
	hdr, body, err := cell.ParseRelay(cell.WirePayload(h.head[:]))
	ok := err == nil && c.dispatch(hdr, body)
	if !ok {
		c.kill()
	}
	b := cell.GetBurst(cell.BurstCells)
	defer cell.PutBurst(b)
	for {
		c.mu.Lock()
		if !ok || c.destroyed.Load() {
			h.drop()
		}
		n := h.q.Read(b.Buf) // whole cells in, whole cells out
		plain := min(h.plain, n)
		h.plain -= plain
		if n == 0 {
			c.helper = nil
		}
		h.space.Broadcast()
		c.mu.Unlock()
		if n == 0 {
			return
		}
		c.finishRun(b.Buf[:n], plain, true)
	}
}

// waiting records the next hop a helper is about to wait on (nil: done
// waiting), so that what must not wait with it can end the wait: teardown
// closes the conn, a transport stalling a sender behind the helper gives
// it a deadline. False if the circuit is already torn down.
func (c *circuit) waiting(next net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.helper; h != nil {
		h.pending = next
		h.space.Broadcast() // a sender stalled already learns whom to hurry
	}
	return !c.destroyed.Load()
}

// dispatch acts on one recognized relay cell other than DATA, which
// finishRun gathers and hands to handleData a run at a time. EXTEND and
// BEGIN dial and wait: finishRun routes them onto a helper.
func (c *circuit) dispatch(hdr cell.RelayHeader, data []byte) bool {
	switch hdr.Cmd {
	case cell.RelayExtend:
		return c.handleExtend(data)
	case cell.RelayBegin:
		return c.handleBegin(hdr.StreamID, data)
	case cell.RelayEnd:
		c.closeStream(hdr.StreamID)
		return true
	case cell.RelayDrop:
		// Cover traffic: absorbed here by design.
		return true
	case cell.RelayEstablishIntro:
		return c.handleEstablishIntro(data)
	case cell.RelayIntroduce1:
		return c.handleIntroduce1(data)
	case cell.RelayEstablishRendezvous:
		return c.handleEstablishRendezvous(data)
	case cell.RelayRendezvous1:
		return c.handleRendezvous1(data)
	default:
		c.relay.logf("unhandled relay command %v", hdr.Cmd)
		return true
	}
}

// handleExtend dials the requested next hop, performs CREATE/CREATED on
// behalf of the client, and returns the reply in an EXTENDED cell.
func (c *circuit) handleExtend(data []byte) bool {
	r := c.relay
	var ext cell.ExtendPayload
	if err := cell.DecodeControl(data, &ext); err != nil {
		return false
	}
	c.mu.Lock()
	already := c.extended
	c.mu.Unlock()
	if already {
		r.logf("EXTEND on already-extended circuit")
		return false
	}
	sp := r.reg.StartSpan("relay.extend")
	sp.Note(ext.Addr)
	defer sp.End()
	next, err := r.host.Dial(ext.Addr)
	if err != nil {
		r.logf("extend dial %s: %v", ext.Addr, err)
		r.m.extendFails.Inc()
		sp.Fail(err)
		return false
	}
	var id [4]byte
	rand.Read(id[:])
	nextID := binary.BigEndian.Uint32(id[:])
	create := linkFrame(nextID, cell.CmdCreate, ext.Handshake)
	var reply [cell.Size]byte
	// The link has no reader yet, so CREATED lands in its read buffer.
	// While the helper waits for it, teardown may close next and a stalled
	// link reader may give it a deadline (waiting); once it is no longer
	// pending neither can, and the deadline comes off before the link
	// goes live.
	ok := c.waiting(next) && c.t.writeConn(next, create[:]) == nil &&
		cell.ReadWire(next, reply[:]) == nil && cell.WireCmd(reply[:]) == cell.CmdCreated &&
		c.waiting(nil)
	next.SetReadDeadline(time.Time{})
	if !ok || !c.t.attachNext(next) {
		next.Close()
		r.m.extendFails.Inc()
		return false
	}
	c.mu.Lock()
	c.extended, c.nextCircID = true, nextID
	c.mu.Unlock()
	r.m.extends.Inc()

	extended, err := cell.EncodeControl(&cell.ExtendedPayload{
		Reply: cell.WirePayload(reply[:])[:otr.PublicKeyLen+otr.AuthLen],
	})
	if err != nil {
		return false
	}
	return c.sendBackward(cell.RelayHeader{Cmd: cell.RelayExtended}, extended) == nil
}

// handleBegin opens an exit stream, enforcing the exit policy. The special
// host "localhost" resolves to the relay's own machine, which is how
// clients reach a co-resident Bento server through an exit circuit.
func (c *circuit) handleBegin(streamID uint16, data []byte) bool {
	r := c.relay
	var begin cell.BeginPayload
	if err := cell.DecodeControl(data, &begin); err != nil {
		return false
	}
	host, port, ok := splitTarget(begin.Target)
	if !ok {
		return c.endStream(streamID, "bad target")
	}
	policyHost := host
	if host == "localhost" {
		host = r.host.Name()
	}
	if !r.cfg.ExitPolicy.Allows(policyHost, port) {
		r.logf("exit policy refuses %s:%d", policyHost, port)
		r.m.streamsRefused.Inc()
		return c.endStream(streamID, "exit policy refused")
	}
	remote, err := r.host.Dial(fmt.Sprintf("%s:%d", host, port))
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
		c.streams = make(map[uint16]net.Conn)
	}
	c.streams[streamID] = remote
	c.mu.Unlock()

	r.m.streamsOpened.Inc()
	// CONNECTED goes out before anything reads the destination: one that
	// answers and hangs up at once must not get its DATA or END onto the
	// circuit ahead of it (the client would read "stream refused").
	if c.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayConnected}, nil) != nil {
		c.closeStream(streamID)
		return false
	}
	c.t.attachStream(streamID, remote)
	return true
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
	if c.t.writeConn(remote, data) != nil {
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
	return c.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayEnd}, end) == nil
}

// streamEOF ends a stream whose destination hung up.
func (c *circuit) streamEOF(streamID uint16) {
	c.endStream(streamID, "eof")
	c.closeStream(streamID)
}

// --- backward direction ------------------------------------------------------

// backwardRun applies this hop's backward keystream to a run of whole
// wire frames in place, restamps their circuit ID, and writes the run
// toward the client — one bwMu hold and one write for the run. The
// frames are the caller's buffer.
func (c *circuit) backwardRun(frames []byte, mayBlock bool) error {
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
	return c.t.writeClient(frames, mayBlock)
}

// sendBackward originates a backward relay cell at this hop (control
// responses, stream ends): pack, seal with the backward digest, and
// encrypt in the scratch frame, then write it toward the client. Callers
// may be cell handlers, so the write never blocks; a control cell that
// cannot even be queued means a dead client link.
func (c *circuit) sendBackward(hdr cell.RelayHeader, data []byte) error {
	c.relay.m.originated.Inc()
	c.bwMu.Lock()
	defer c.bwMu.Unlock()
	payload := cell.WirePayload(c.bwWire[:])
	if err := cell.PackRelay(payload, hdr, data); err != nil {
		return err
	}
	c.layer.SealBackward(payload, cell.DigestOffset)
	c.layer.ApplyBackward(payload)
	cell.SetWireCircID(c.bwWire[:], c.circID)
	cell.SetWireCmd(c.bwWire[:], cell.CmdRelay)
	return c.t.writeClient(c.bwWire[:], false)
}

// --- hidden-service duties ---------------------------------------------------

// register enters the circuit into an HS table under key and notes the
// key in slot (the circuit's cookie or introID) for teardown. A circuit
// holds at most one registration of a kind: a second one is a protocol
// violation, not a reason to forget the first.
func (c *circuit) register(table *shardedTable[string, *circuit], slot *string, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *slot != "" || c.destroyed.Load() {
		return false
	}
	*slot = key
	table.Put(key, c)
	return true
}

// is matches the circuit's own table entries: teardown removes a key only
// while the table still maps it to this circuit.
func (c *circuit) is(v *circuit) bool { return v == c }

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
	return c.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroEstablished}, nil) == nil
}

func (c *circuit) handleIntroduce1(data []byte) bool {
	r := c.relay
	var intro cell.Introduce1Payload
	if err := cell.DecodeControl(data, &intro); err != nil {
		return false
	}
	svc, _ := r.intros.Get(intro.ServiceID)
	if svc == nil {
		r.logf("INTRODUCE1 for unknown service %s", intro.ServiceID)
		return c.endStream(0, "no such service")
	}
	// Forward the opaque inner payload to the service as INTRODUCE2.
	if err := svc.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroduce2}, intro.Inner); err != nil {
		return c.endStream(0, "service unreachable")
	}
	r.m.introsForwarded.Inc()
	return c.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroduceAck}, nil) == nil
}

func (c *circuit) handleEstablishRendezvous(data []byte) bool {
	var est cell.EstablishRendezvousPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if len(est.Cookie) < 8 || !c.register(c.relay.rendezvous, &c.cookie, hex.EncodeToString(est.Cookie)) {
		return false
	}
	return c.sendBackward(cell.RelayHeader{Cmd: cell.RelayRendezvousEstablished}, nil) == nil
}

func (c *circuit) handleRendezvous1(data []byte) bool {
	r := c.relay
	var rv cell.Rendezvous1Payload
	if err := cell.DecodeControl(data, &rv); err != nil {
		return false
	}
	client, _ := r.rendezvous.GetAndDelete(hex.EncodeToString(rv.Cookie))
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
	return client.sendBackward(cell.RelayHeader{Cmd: cell.RelayRendezvous2}, reply) == nil
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

// teardown releases everything the circuit holds. The light transport
// calls it from dispatcher context, where nothing it does parks; the
// goroutine transport gives it a goroutine of its own, because closing
// links there waits for them to flush.
func (c *circuit) teardown() {
	if !c.destroyed.CompareAndSwap(false, true) {
		return
	}
	r := c.relay
	c.mu.Lock()
	extended, nextID := c.extended, c.nextCircID
	joined, streams := c.joined, c.streams
	c.joined, c.streams = nil, nil
	cookie, introID := c.cookie, c.introID
	var pending net.Conn
	if h := c.helper; h != nil {
		// The helper retires on its own once what it waits on is closed.
		h.drop()
		pending = h.pending
		h.space.Broadcast()
	}
	c.mu.Unlock()

	if c.layer != nil {
		r.circuits.Delete(c.serial)
		r.m.circDestroyed.Inc()
		r.m.openCircs.Add(-1)
	}
	// By key, and only what is still this circuit's: a sweep per teardown
	// is quadratic across a drain, and a service that re-established on a
	// new circuit keeps its registration when the old one goes.
	if cookie != "" {
		r.rendezvous.CompareAndDelete(cookie, c.is)
	}
	if introID != "" {
		r.intros.CompareAndDelete(introID, c.is)
	}
	if pending != nil {
		pending.Close()
	}
	for _, s := range streams {
		s.Close()
	}
	if extended {
		destroy := linkFrame(nextID, cell.CmdDestroy, nil)
		c.t.writeNext(destroy[:], true)
	}
	c.t.closeLinks()
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
	c.t.sever(true)
}

func splitTarget(s string) (string, int, bool) {
	i := strings.LastIndex(s, ":")
	if i <= 0 {
		return "", 0, false
	}
	var port int
	if _, err := fmt.Sscanf(s[i+1:], "%d", &port); err != nil || port < 1 || port > 65535 {
		return "", 0, false
	}
	return s[:i], port, true
}
