package relay

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"sync"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Light (event-native) ingress.
//
// The classic ingress spends one goroutine per inbound link (serveConn's
// read loop) plus one per extended hop (backwardPump) plus one per exit
// stream. That is the right shape on a real network, where goroutines
// are parked in the kernel — but under the discrete-event core every one
// of those goroutines is a park/unpark bridge crossing per cell, and at
// 500k circuits the quiescence detector drowns the dispatcher (the
// settle loop was 98% of scale-bench wall time before this path).
//
// With Config.LightIngress, links on an event-driven simnet instead
// deliver through LightConn.SetDeliverFunc: frames arrive as dispatcher
// callbacks, forward-path crypto and circuit-ID rewrite run inline, and
// egress goes out through WriteAsync — zero goroutines, zero parks, so
// a pure relay epoch needs no settles at all. The two operations that
// genuinely block — EXTEND (dials the next hop and waits for CREATED)
// and BEGIN (dials the exit destination) — hop onto a short-lived
// helper goroutine; frames arriving mid-helper queue on the circuit and
// drain in arrival order when the helper finishes, preserving the
// decrypt-order-equals-wire-order invariant the layered crypto needs.
//
// State lives in the same sharded tables as the §13 parallel datapath
// (rendezvous cookies and intro registrations get light twins with the
// identical shard layout), and the light path feeds the identical
// relay.* counters, so dashboards and gates see one relay either way.

// lightCircuit is one inbound link's circuit state on the light path.
// Forward-path processing is single-threaded by construction: frames
// are handled inline on the dispatcher while no helper is active, and
// exclusively by the helper while one is (mu guards the handoff and the
// backlog). The backward direction is serialized by bwMu, which is held
// across seal/encrypt + WriteAsync so keystream order equals wire
// order.
type lightCircuit struct {
	relay  *Relay
	serial uint64
	circID uint32
	conn   simnet.LightConn // inbound link, toward the circuit origin
	layer  *otr.Layer

	created bool     // CREATE handshake completed
	inBuf   frameBuf // client-side chunk→cell reassembly (dispatcher only)
	bwBuf   frameBuf // next-hop-side reassembly (dispatcher only)

	mu         sync.Mutex
	busy       bool             // a helper goroutine owns frame processing
	backlog    [][]byte         // raw frames queued behind the helper, arrival order
	next       simnet.LightConn // toward the next hop, nil until extended
	nextCircID uint32
	joined     *lightCircuit // rendezvous splice
	streams    map[uint16]net.Conn
	rendKey    string // registered rendezvous cookie, for O(1) teardown
	introKey   string // registered intro service ID, for O(1) teardown
	destroyed  bool

	bwMu   sync.Mutex
	bwWire [cell.Size]byte // backward originate scratch, guarded by bwMu
}

// frameBuf reassembles delivered byte chunks into whole wire cells:
// simnet chunks both split and merge cells (a 16-cell WriteAsync burst
// can arrive as one 8KiB delivery). Whole cells sitting aligned in the
// incoming chunk are emitted in place with no copy; only split cells
// touch the carry buffer. emit may mutate the frame (in-place decrypt)
// and returns false to abort the feed (circuit killed).
type frameBuf struct {
	carry []byte
}

func (fb *frameBuf) feed(data []byte, emit func(frame []byte) bool) bool {
	if len(fb.carry) > 0 {
		need := cell.Size - len(fb.carry)
		if need > len(data) {
			fb.carry = append(fb.carry, data...)
			return true
		}
		fb.carry = append(fb.carry, data[:need]...)
		data = data[need:]
		if !emit(fb.carry) {
			return false
		}
		fb.carry = fb.carry[:0]
	}
	for len(data) >= cell.Size {
		if !emit(data[:cell.Size]) {
			return false
		}
		data = data[cell.Size:]
	}
	fb.carry = append(fb.carry, data...)
	return true
}

// serveLight wires an accepted link into the light ingress and returns
// immediately: all further work for this link happens in deliver
// callbacks. Called from the accept loop.
func (r *Relay) serveLight(conn simnet.LightConn) {
	lc := &lightCircuit{relay: r, conn: conn, serial: r.circSerial.Add(1)}
	r.connMu.Lock()
	r.conns[conn] = struct{}{}
	r.connMu.Unlock()
	conn.SetDeliverFunc(lc.onDeliver)
}

// onDeliver is the inbound link's delivery callback (dispatcher
// context: must not block or park). data is a simnet chunk lent for the
// call (LightConn): every path below either finishes with the bytes
// before returning (in-place decrypt, WriteAsync and PackRelay copy) or
// copies them first (frameBuf's carry, the backlog, the helper's frame).
func (lc *lightCircuit) onDeliver(data []byte, eof bool) {
	if len(data) > 0 {
		lc.inBuf.feed(data, lc.onFrame)
	}
	if eof {
		lc.teardown()
	}
}

// onFrame handles one whole inbound wire cell.
func (lc *lightCircuit) onFrame(wire []byte) bool {
	r := lc.relay
	if !lc.created {
		if cell.WireCmd(wire) != cell.CmdCreate {
			lc.kill()
			return false
		}
		lc.circID = cell.WireCircID(wire)
		reply, keys, err := otr.ServerHandshake([]byte(r.Fingerprint()), r.onion, cell.WirePayload(wire)[:otr.PublicKeyLen])
		if err != nil {
			r.logf("light handshake failed: %v", err)
			lc.kill()
			return false
		}
		layer, err := otr.NewLayer(keys)
		if err != nil {
			lc.kill()
			return false
		}
		lc.layer = layer
		lc.created = true
		lc.streams = make(map[uint16]net.Conn)
		var out [cell.Size]byte
		cell.SetWireCircID(out[:], lc.circID)
		cell.SetWireCmd(out[:], cell.CmdCreated)
		copy(cell.WirePayload(out[:]), reply)
		if lc.conn.WriteAsync(out[:]) != nil {
			lc.teardown()
			return false
		}
		r.m.circCreated.Inc()
		r.m.openCircs.Add(1)
		return true
	}
	switch cell.WireCmd(wire) {
	case cell.CmdRelay:
		// Helper active: preserve order by queueing the still-encrypted
		// frame; the helper decrypts the backlog in arrival order. The
		// frame aliases the reassembly buffer, so the queue keeps a copy.
		lc.mu.Lock()
		if lc.busy {
			lc.backlog = append(lc.backlog, append([]byte(nil), wire...))
			lc.mu.Unlock()
			return true
		}
		lc.mu.Unlock()
		return lc.processFrame(wire, false)
	case cell.CmdDestroy:
		lc.teardown()
		return false
	case cell.CmdPadding:
		return true
	default:
		r.logf("light: unexpected cell %v mid-circuit", cell.WireCmd(wire))
		lc.kill()
		return false
	}
}

// processFrame decrypts one relay cell and finishes it: recognition and
// dispatch if addressed to this hop, otherwise circuit-ID rewrite and
// WriteAsync toward the next hop (or a splice toward a joined circuit).
// onHelper marks helper-goroutine context, where parking is allowed;
// commands that park (EXTEND, BEGIN) promote themselves onto a helper
// otherwise.
func (lc *lightCircuit) processFrame(wire []byte, onHelper bool) bool {
	r := lc.relay
	payload := cell.WirePayload(wire)
	lc.layer.ApplyForward(payload)
	if cell.Recognized(payload) && lc.layer.VerifyForward(payload, cell.DigestOffset) {
		r.m.recognized.Inc()
		hdr, data, err := cell.ParseRelay(payload)
		if err != nil {
			r.logf("light: bad relay payload: %v", err)
			lc.kill()
			return false
		}
		if !onHelper && (hdr.Cmd == cell.RelayExtend || hdr.Cmd == cell.RelayBegin) {
			// These dial and wait: off the dispatcher. The decrypted frame
			// aliases the reassembly buffer, so the helper gets a copy. The
			// helper is a real goroutine outside the event graph, so hold
			// the park-side bridge open across its lifetime — without it,
			// settle elision lets virtual time sprint past the helper
			// before the OS scheduler ever runs it.
			lc.mu.Lock()
			lc.busy = true
			lc.mu.Unlock()
			frame := append([]byte(nil), wire...)
			release := r.host.Clock().Blocking()
			go func() {
				defer release()
				lc.runHelper(frame)
			}()
			return true
		}
		if !lc.dispatchLight(hdr, data) {
			lc.kill()
			return false
		}
		return true
	}

	lc.mu.Lock()
	next, nextID, joined, dead := lc.next, lc.nextCircID, lc.joined, lc.destroyed
	lc.mu.Unlock()
	if dead {
		return false
	}
	switch {
	case next != nil:
		cell.SetWireCircID(wire, nextID)
		r.m.fwdCells.Inc()
		if next.WriteAsync(wire) != nil {
			lc.kill()
			return false
		}
	case joined != nil:
		// Rendezvous splice: the still-encrypted payload continues as a
		// backward cell on the joined circuit.
		r.m.bwdCells.Inc()
		if joined.spliceBackward(payload) != nil {
			lc.kill()
			return false
		}
	default:
		r.logf("light: unrecognized relay cell at last hop, dropping circuit")
		r.m.dropped.Inc()
		lc.kill()
		return false
	}
	return true
}

// runHelper processes one already-decrypted frame that needs to block,
// then drains any frames that queued behind it, in arrival order. It is
// the only frame-processing context while lc.busy is set.
func (lc *lightCircuit) runHelper(decrypted []byte) {
	payload := cell.WirePayload(decrypted)
	if hdr, data, err := cell.ParseRelay(payload); err == nil {
		if !lc.dispatchLight(hdr, data) {
			lc.kill()
		}
	} else {
		lc.kill()
	}
	for {
		lc.mu.Lock()
		if len(lc.backlog) == 0 || lc.destroyed {
			lc.backlog = nil
			lc.busy = false
			lc.mu.Unlock()
			return
		}
		f := lc.backlog[0]
		lc.backlog = lc.backlog[1:]
		lc.mu.Unlock()
		lc.processFrame(f, true)
	}
}

// dispatchLight routes one recognized relay command. Handlers must not
// park unless documented otherwise (EXTEND and BEGIN run on helpers).
func (lc *lightCircuit) dispatchLight(hdr cell.RelayHeader, data []byte) bool {
	r := lc.relay
	switch hdr.Cmd {
	case cell.RelayExtend:
		return lc.handleExtend(data)
	case cell.RelayBegin:
		return lc.handleBegin(hdr, data)
	case cell.RelayData:
		return lc.handleData(hdr, data)
	case cell.RelayEnd:
		lc.closeStream(hdr.StreamID)
		return true
	case cell.RelayDrop:
		// Cover traffic: absorbed here by design.
		return true
	case cell.RelayEstablishRendezvous:
		return lc.handleEstablishRendezvous(data)
	case cell.RelayRendezvous1:
		return lc.handleRendezvous1(data)
	case cell.RelayEstablishIntro:
		return lc.handleEstablishIntro(data)
	case cell.RelayIntroduce1:
		return lc.handleIntroduce1(data)
	default:
		r.logf("light: unhandled relay command %v", hdr.Cmd)
		return true
	}
}

// handleExtend runs on a helper goroutine: it dials the next hop,
// performs CREATE/CREATED on behalf of the client, and installs the
// backward delivery callback on the new link.
func (lc *lightCircuit) handleExtend(data []byte) bool {
	r := lc.relay
	var ext cell.ExtendPayload
	if err := cell.DecodeControl(data, &ext); err != nil {
		return false
	}
	lc.mu.Lock()
	already := lc.next != nil
	lc.mu.Unlock()
	if already {
		r.logf("light: EXTEND on already-extended circuit")
		return false
	}
	sp := r.reg.StartSpan("relay.extend")
	sp.Note(ext.Addr)
	nextConn, err := r.host.Dial(ext.Addr)
	if err != nil {
		r.logf("light extend dial %s: %v", ext.Addr, err)
		r.m.extendFails.Inc()
		sp.Fail(err)
		sp.End()
		return false
	}
	nextLC, ok := nextConn.(simnet.LightConn)
	if !ok {
		nextConn.Close()
		r.m.extendFails.Inc()
		sp.End()
		return false
	}
	var idBuf [4]byte
	rand.Read(idBuf[:])
	nextID := uint32(idBuf[0])<<24 | uint32(idBuf[1])<<16 | uint32(idBuf[2])<<8 | uint32(idBuf[3])
	var create [cell.Size]byte
	cell.SetWireCircID(create[:], nextID)
	cell.SetWireCmd(create[:], cell.CmdCreate)
	copy(cell.WirePayload(create[:]), ext.Handshake)
	if nextLC.WriteAsync(create[:]) != nil {
		nextConn.Close()
		r.m.extendFails.Inc()
		sp.End()
		return false
	}
	// Blocking read for CREATED: the delivery callback is not installed
	// yet, so the reply lands in the conn's read buffer, and parking a
	// helper goroutine is fine.
	var reply [cell.Size]byte
	if err := cell.ReadWire(nextConn, reply[:]); err != nil || cell.WireCmd(reply[:]) != cell.CmdCreated {
		nextConn.Close()
		r.m.extendFails.Inc()
		sp.End()
		return false
	}
	nextLC.SetDeliverFunc(lc.onBackward)
	lc.mu.Lock()
	if lc.destroyed {
		lc.mu.Unlock()
		nextConn.Close()
		sp.End()
		return false
	}
	lc.next = nextLC
	lc.nextCircID = nextID
	lc.mu.Unlock()
	r.m.extends.Inc()
	sp.End()

	extended, err := cell.EncodeControl(&cell.ExtendedPayload{
		Reply: cell.WirePayload(reply[:])[:otr.PublicKeyLen+otr.AuthLen],
	})
	if err != nil {
		return false
	}
	return lc.sendBackward(cell.RelayHeader{Cmd: cell.RelayExtended}, extended) == nil
}

// onBackward is the next-hop link's delivery callback (dispatcher
// context): cells from behind get this hop's backward layer applied and
// continue toward the client.
func (lc *lightCircuit) onBackward(data []byte, eof bool) {
	if len(data) > 0 {
		lc.bwBuf.feed(data, lc.onBackwardFrame)
	}
	if eof {
		lc.destroyFromBehind()
	}
}

func (lc *lightCircuit) onBackwardFrame(wire []byte) bool {
	switch cell.WireCmd(wire) {
	case cell.CmdRelay:
		lc.relay.m.bwdCells.Inc()
		lc.bwMu.Lock()
		lc.layer.ApplyBackward(cell.WirePayload(wire))
		cell.SetWireCircID(wire, lc.circID)
		err := lc.conn.WriteAsync(wire)
		lc.bwMu.Unlock()
		if err != nil {
			lc.teardown()
			return false
		}
		return true
	case cell.CmdDestroy:
		lc.destroyFromBehind()
		return false
	default:
		return true
	}
}

// spliceBackward carries a still-encrypted forward payload from a
// joined circuit onto this circuit's backward direction (rendezvous
// splice). The caller owns the payload's frame; WriteAsync copies.
func (lc *lightCircuit) spliceBackward(payload []byte) error {
	lc.bwMu.Lock()
	defer lc.bwMu.Unlock()
	lc.layer.ApplyBackward(payload)
	cell.SetWireCircID(lc.bwWire[:], lc.circID)
	cell.SetWireCmd(lc.bwWire[:], cell.CmdRelay)
	copy(cell.WirePayload(lc.bwWire[:]), payload)
	return lc.conn.WriteAsync(lc.bwWire[:])
}

// sendBackward originates a backward relay cell at this hop: pack, seal
// with the backward digest, encrypt, WriteAsync — never parks, so it is
// safe from both dispatcher and helper context.
func (lc *lightCircuit) sendBackward(hdr cell.RelayHeader, data []byte) error {
	lc.relay.m.originated.Inc()
	lc.bwMu.Lock()
	defer lc.bwMu.Unlock()
	payload := cell.WirePayload(lc.bwWire[:])
	if err := cell.PackRelay(payload, hdr, data); err != nil {
		return err
	}
	lc.layer.SealBackward(payload, cell.DigestOffset)
	lc.layer.ApplyBackward(payload)
	cell.SetWireCircID(lc.bwWire[:], lc.circID)
	cell.SetWireCmd(lc.bwWire[:], cell.CmdRelay)
	return lc.conn.WriteAsync(lc.bwWire[:])
}

// handleBegin runs on a helper goroutine: it dials the exit destination
// and installs the stream's backward delivery callback.
func (lc *lightCircuit) handleBegin(hdr cell.RelayHeader, data []byte) bool {
	r := lc.relay
	var begin cell.BeginPayload
	if err := cell.DecodeControl(data, &begin); err != nil {
		return false
	}
	host, port, ok := splitTarget(begin.Target)
	if !ok {
		return lc.endStream(hdr.StreamID, "bad target")
	}
	policyHost := host
	if host == "localhost" {
		host = r.host.Name()
	}
	if !r.cfg.ExitPolicy.Allows(policyHost, port) {
		r.logf("light: exit policy refuses %s:%d", policyHost, port)
		r.m.streamsRefused.Inc()
		return lc.endStream(hdr.StreamID, "exit policy refused")
	}
	remote, err := r.host.Dial(fmt.Sprintf("%s:%d", host, port))
	if err != nil {
		r.m.streamsRefused.Inc()
		return lc.endStream(hdr.StreamID, "connect failed")
	}
	streamID := hdr.StreamID
	lc.mu.Lock()
	if lc.destroyed {
		lc.mu.Unlock()
		remote.Close()
		return false
	}
	lc.streams[streamID] = remote
	lc.mu.Unlock()
	r.m.streamsOpened.Inc()
	// CONNECTED first: installing the callback flushes whatever the
	// destination has already sent (and its hang-up) as DATA and END.
	if lc.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayConnected}, nil) != nil {
		lc.closeStream(streamID)
		return false
	}
	if rl, ok := remote.(simnet.LightConn); ok {
		rl.SetDeliverFunc(func(data []byte, eof bool) {
			lc.streamBackward(streamID, data, eof)
		})
	} else {
		go lc.exitReaderLight(streamID, remote)
	}
	return true
}

// streamBackward turns exit-destination bytes into backward DATA cells
// (dispatcher context: pack + seal + WriteAsync only).
func (lc *lightCircuit) streamBackward(streamID uint16, data []byte, eof bool) {
	for len(data) > 0 {
		chunk := data
		if len(chunk) > cell.MaxRelayData {
			chunk = chunk[:cell.MaxRelayData]
		}
		if lc.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayData}, chunk) != nil {
			lc.teardown()
			return
		}
		data = data[len(chunk):]
	}
	if eof {
		end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "eof"})
		lc.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayEnd}, end)
		lc.closeStream(streamID)
	}
}

// exitReaderLight is the fallback for exit destinations that are not
// LightConns (never the case on simnet): a dedicated reader goroutine,
// as on the classic path.
func (lc *lightCircuit) exitReaderLight(streamID uint16, remote net.Conn) {
	buf := make([]byte, cell.MaxRelayData)
	for {
		n, err := remote.Read(buf)
		if n > 0 {
			lc.streamBackward(streamID, buf[:n], false)
		}
		if err != nil {
			lc.streamBackward(streamID, nil, true)
			return
		}
	}
}

func (lc *lightCircuit) handleData(hdr cell.RelayHeader, data []byte) bool {
	lc.mu.Lock()
	remote := lc.streams[hdr.StreamID]
	lc.mu.Unlock()
	if remote == nil {
		// Stream already closed; tolerate in-flight data.
		return true
	}
	if rl, ok := remote.(simnet.LightConn); ok {
		if rl.WriteAsync(data) != nil {
			lc.closeStream(hdr.StreamID)
		}
		return true
	}
	// Non-light remote: this handler may be on the dispatcher, where a
	// blocking Write could deadlock the clock. Drop rather than park —
	// light ingress is only selected on event-driven simnets, where
	// every conn is a LightConn.
	lc.relay.logf("light: dropping stream data for non-light remote")
	return true
}

func (lc *lightCircuit) closeStream(streamID uint16) {
	lc.mu.Lock()
	remote := lc.streams[streamID]
	delete(lc.streams, streamID)
	lc.mu.Unlock()
	if remote != nil {
		remote.Close()
	}
}

func (lc *lightCircuit) endStream(streamID uint16, reason string) bool {
	end, err := cell.EncodeControl(&cell.EndPayload{Reason: reason})
	if err != nil {
		return false
	}
	return lc.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayEnd}, end) == nil
}

func (lc *lightCircuit) handleEstablishRendezvous(data []byte) bool {
	var est cell.EstablishRendezvousPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if len(est.Cookie) < 8 {
		return false
	}
	key := hex.EncodeToString(est.Cookie)
	lc.relay.lightRend.Put(key, lc)
	lc.mu.Lock()
	lc.rendKey = key
	lc.mu.Unlock()
	return lc.sendBackward(cell.RelayHeader{Cmd: cell.RelayRendezvousEstablished}, nil) == nil
}

func (lc *lightCircuit) handleRendezvous1(data []byte) bool {
	r := lc.relay
	var rv cell.Rendezvous1Payload
	if err := cell.DecodeControl(data, &rv); err != nil {
		return false
	}
	key := hex.EncodeToString(rv.Cookie)
	client, _ := r.lightRend.GetAndDelete(key)
	if client == nil {
		r.logf("light: RENDEZVOUS1 with unknown cookie")
		return false
	}
	client.mu.Lock()
	client.joined = lc
	client.rendKey = ""
	client.mu.Unlock()
	lc.mu.Lock()
	lc.joined = client
	lc.mu.Unlock()
	reply, err := cell.EncodeControl(&cell.Rendezvous2Payload{Reply: rv.Reply})
	if err != nil {
		return false
	}
	r.m.rendSplices.Inc()
	return client.sendBackward(cell.RelayHeader{Cmd: cell.RelayRendezvous2}, reply) == nil
}

func (lc *lightCircuit) handleEstablishIntro(data []byte) bool {
	r := lc.relay
	var est cell.EstablishIntroPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if !verifyIntroSig(est) {
		r.logf("light: ESTABLISH_INTRO bad signature for %s", est.ServiceID)
		return false
	}
	r.lightIntros.Put(est.ServiceID, lc)
	lc.mu.Lock()
	lc.introKey = est.ServiceID
	lc.mu.Unlock()
	return lc.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroEstablished}, nil) == nil
}

func (lc *lightCircuit) handleIntroduce1(data []byte) bool {
	r := lc.relay
	var intro cell.Introduce1Payload
	if err := cell.DecodeControl(data, &intro); err != nil {
		return false
	}
	svc, _ := r.lightIntros.Get(intro.ServiceID)
	if svc == nil {
		r.logf("light: INTRODUCE1 for unknown service %s", intro.ServiceID)
		return lc.endIntroduce("no such service")
	}
	if err := svc.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroduce2}, intro.Inner); err != nil {
		return lc.endIntroduce("service unreachable")
	}
	r.m.introsForwarded.Inc()
	return lc.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroduceAck}, nil) == nil
}

func (lc *lightCircuit) endIntroduce(reason string) bool {
	data, _ := cell.EncodeControl(&cell.EndPayload{Reason: reason})
	return lc.sendBackward(cell.RelayHeader{Cmd: cell.RelayEnd}, data) == nil
}

// kill severs the circuit immediately: used for protocol violations.
func (lc *lightCircuit) kill() {
	lc.teardown()
}

// teardown releases everything the circuit holds. Safe from any
// context (dispatcher, helper, Crash): nothing here parks.
func (lc *lightCircuit) teardown() {
	lc.mu.Lock()
	if lc.destroyed {
		lc.mu.Unlock()
		return
	}
	lc.destroyed = true
	next, nextID := lc.next, lc.nextCircID
	joined := lc.joined
	streams := lc.streams
	rendKey, introKey := lc.rendKey, lc.introKey
	lc.next = nil
	lc.joined = nil
	lc.streams = nil
	lc.backlog = nil
	lc.mu.Unlock()

	r := lc.relay
	if lc.created {
		r.m.circDestroyed.Inc()
		r.m.openCircs.Add(-1)
	}
	// Direct key deletes: a DeleteIf sweep per teardown would be
	// quadratic across a 500k-circuit drain.
	if rendKey != "" {
		r.lightRend.Delete(rendKey)
	}
	if introKey != "" {
		r.lightIntros.Delete(introKey)
	}
	for _, s := range streams {
		s.Close()
	}
	if next != nil {
		var destroy [cell.Size]byte
		cell.SetWireCircID(destroy[:], nextID)
		cell.SetWireCmd(destroy[:], cell.CmdDestroy)
		next.WriteAsync(destroy[:])
		next.Close()
	}
	if joined != nil {
		joined.mu.Lock()
		joined.joined = nil
		joined.mu.Unlock()
		joined.destroyFromBehind()
	}
	r.connMu.Lock()
	delete(r.conns, lc.conn)
	r.connMu.Unlock()
	lc.conn.Close()
}

// destroyFromBehind tears the circuit down when the next hop vanished:
// the client is told with a DESTROY, then everything unwinds.
func (lc *lightCircuit) destroyFromBehind() {
	lc.mu.Lock()
	dead := lc.destroyed
	lc.mu.Unlock()
	if dead {
		return
	}
	var destroy [cell.Size]byte
	cell.SetWireCircID(destroy[:], lc.circID)
	cell.SetWireCmd(destroy[:], cell.CmdDestroy)
	lc.conn.WriteAsync(destroy[:])
	lc.teardown()
}
