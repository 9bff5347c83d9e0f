// Package relay implements an onion relay of the emulated Tor overlay:
// circuit creation and extension, relay-cell recognition and forwarding,
// exit streams constrained by exit policies, introduction-point and
// rendezvous-point duties for hidden services, and DROP-cell handling for
// cover traffic.
//
// One simplification relative to production Tor: each circuit hop uses a
// dedicated link connection rather than multiplexing many circuits over one
// TLS connection. Cell structure, layered crypto, and per-hop recognition
// are unchanged; only link-level multiplexing is elided (see DESIGN.md).
package relay

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

// ORPort is the port relays listen on for onion-routing connections.
const ORPort = 9001

// Config configures a relay.
type Config struct {
	Nickname string
	Flags    []string
	// Family is the relay's declared operator family, published in the
	// descriptor; placement layers treat same-family relays as one fault
	// domain. Empty = no declared family.
	Family     string
	ExitPolicy *policy.ExitPolicy
	// Middlebox and BentoAddr advertise a co-resident Bento server.
	Middlebox *policy.Middlebox
	BentoAddr string
	// LightIngress serves inbound links event-natively (see ingress.go):
	// deliveries arrive as LightConn callbacks instead of per-link reader
	// goroutines, which is what lets one process hold 500k+ live circuits
	// on the event clock. Links whose conns are not LightConns (a
	// non-simnet listener, the legacy clock's blocking conns still
	// qualify — every simnet conn implements LightConn) fall back to the
	// classic goroutine path.
	LightIngress bool
	// Quiet suppresses per-circuit log output.
	Quiet bool
}

// Relay is one onion router.
type Relay struct {
	host    *simnet.Host
	cfg     Config
	idPub   ed25519.PublicKey
	idPriv  ed25519.PrivateKey
	onion   *otr.OnionKey
	ln      net.Listener
	closing chan struct{}
	reg     *obs.Registry
	m       relayMetrics

	// fwd is the worker pool processing the forward datapath; serveWG
	// counts the accept loop plus every live link reader, so Close can
	// stop the workers only after the last possible enqueuer is gone.
	fwd        *forwarder
	serveWG    sync.WaitGroup
	circSerial atomic.Uint64

	// Control-plane tables, all sharded — nothing here is on the
	// per-cell forward path. Circuits are keyed by a unique serial
	// (circuit IDs are per-link random and may collide across links).
	circuits   *shardedTable[uint64, *circuitEnd]
	rendezvous *shardedTable[string, *circuitEnd] // cookie (hex) -> waiting client circuit
	intros     *shardedTable[string, *circuitEnd] // service ID -> intro circuit
	hsdir      *shardedTable[string, []byte]      // service ID -> raw descriptor (HSDir duty)

	// Light-ingress twins of the rendezvous/intro tables (same shard
	// layout; see ingress.go). Kept separate because the two paths hold
	// different circuit types; a deployment uses one ingress per relay.
	lightRend   *shardedTable[string, *lightCircuit]
	lightIntros *shardedTable[string, *lightCircuit]

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // live inbound links, for Crash
}

// initTables builds the relay's sharded control-plane tables, wiring
// shard-lock acquisition waits into the contention histogram.
func (r *Relay) initTables() {
	r.circuits = newShardedTable[uint64, *circuitEnd](hashU64, r.m.shardWait)
	r.rendezvous = newShardedTable[string, *circuitEnd](fnv32, r.m.shardWait)
	r.intros = newShardedTable[string, *circuitEnd](fnv32, r.m.shardWait)
	r.hsdir = newShardedTable[string, []byte](fnv32, r.m.shardWait)
	r.lightRend = newShardedTable[string, *lightCircuit](fnv32, r.m.shardWait)
	r.lightIntros = newShardedTable[string, *lightCircuit](fnv32, r.m.shardWait)
	r.conns = make(map[net.Conn]struct{})
}

// New creates and starts a relay on the given host.
func New(host *simnet.Host, cfg Config) (*Relay, error) {
	if cfg.ExitPolicy == nil {
		cfg.ExitPolicy = policy.RejectAll()
	}
	idPub, idPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("relay: identity key: %w", err)
	}
	onion, err := otr.NewOnionKey()
	if err != nil {
		return nil, err
	}
	ln, err := host.Listen(ORPort)
	if err != nil {
		return nil, err
	}
	reg := host.Network().Obs()
	r := &Relay{
		host:    host,
		cfg:     cfg,
		reg:     reg,
		m:       newRelayMetrics(reg),
		idPub:   idPub,
		idPriv:  idPriv,
		onion:   onion,
		ln:      ln,
		closing: make(chan struct{}),
	}
	r.initTables()
	r.fwd = newForwarder(r, runtime.GOMAXPROCS(0))
	r.serveWG.Add(1) // the accept loop itself; keeps worker shutdown behind it
	go r.acceptLoop()
	return r, nil
}

// Host returns the relay's emulated host.
func (r *Relay) Host() *simnet.Host { return r.host }

// Nickname returns the relay's nickname.
func (r *Relay) Nickname() string { return r.cfg.Nickname }

// Descriptor builds and signs the relay's directory descriptor.
func (r *Relay) Descriptor() (*dirauth.Descriptor, error) {
	d := &dirauth.Descriptor{
		Nickname:   r.cfg.Nickname,
		Address:    fmt.Sprintf("%s:%d", r.host.Name(), ORPort),
		Identity:   r.idPub,
		OnionKey:   r.onion.Public(),
		Flags:      r.cfg.Flags,
		FamilyID:   r.cfg.Family,
		ExitPolicy: r.cfg.ExitPolicy,
		Middlebox:  r.cfg.Middlebox,
		BentoAddr:  r.cfg.BentoAddr,
	}
	if err := d.Sign(r.idPriv); err != nil {
		return nil, err
	}
	return d, nil
}

// Fingerprint returns the relay's identity fingerprint as used in
// handshakes.
func (r *Relay) Fingerprint() string {
	d := dirauth.Descriptor{Identity: r.idPub}
	return d.Fingerprint()
}

// Close shuts the relay down gracefully: no new connections; existing
// circuits continue until their endpoints close them. The worker pool
// stops in the background once the last link reader (the last possible
// enqueuer) has exited.
func (r *Relay) Close() error {
	select {
	case <-r.closing:
		return nil
	default:
	}
	close(r.closing)
	err := r.ln.Close()
	go func() {
		r.serveWG.Wait()
		r.fwd.stop()
	}()
	return err
}

// Crash simulates the relay's machine dying: the listener and every live
// circuit link are severed immediately, so downstream and upstream
// neighbors observe connection failures (the failure-injection primitive
// behind "functions fate-share with the middlebox nodes they run on").
func (r *Relay) Crash() {
	r.Close()
	r.connMu.Lock()
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (r *Relay) logf(format string, args ...any) {
	if !r.cfg.Quiet {
		log.Printf("relay %s: "+format, append([]any{r.cfg.Nickname}, args...)...)
	}
}

func (r *Relay) acceptLoop() {
	defer r.serveWG.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		if r.cfg.LightIngress {
			if lcn, ok := conn.(simnet.LightConn); ok {
				r.serveLight(lcn)
				continue
			}
		}
		r.serveWG.Add(1)
		go r.serveConn(conn)
	}
}

// circuitEnd is this relay's state for one circuit.
type circuitEnd struct {
	relay  *Relay
	serial uint64 // key in the relay's circuit table (unique, unlike circID)
	circID uint32
	worker int               // affinity worker index; all forward cells land there
	conn   net.Conn          // inbound link; closing it stops the link reader
	prevW  *cell.BatchWriter // batched writer toward the circuit origin
	layer  *otr.Layer

	// fwdSpill guards the next-hop writer: the worker enqueues forward
	// frames through it without ever blocking (see spillQueue).
	fwdSpill spillQueue

	// bwMu serializes backward-direction crypto and enqueues to prevW:
	// the rolling digest and keystream must advance in exactly wire
	// order, and bwSpill preserves enqueue order, so holding bwMu across
	// seal/encrypt + enqueue keeps crypto order equal to wire order.
	bwMu sync.Mutex
	// bwWire is the backward-direction scratch frame, guarded by bwMu.
	// sendBackward packs, seals, and encrypts into it in place; the
	// enqueue copies it or has written it by the time it returns, so the
	// frame is reusable immediately.
	bwWire []byte
	// bwBatch is the contiguous multi-frame scratch behind
	// sendBackwardBatch (lazily allocated: only exit circuits need it),
	// with bwViews/bwScratch its reused payload views and keystream
	// scratch. All guarded by bwMu.
	bwBatch   []byte
	bwViews   [][]byte
	bwScratch otr.CryptScratch
	// bwSpill guards the client-side writer, same role as fwdSpill.
	bwSpill spillQueue

	destroyed atomic.Bool

	mu         sync.Mutex
	nextW      *cell.BatchWriter // batched writer toward the next hop, nil at the last hop
	nextCircID uint32
	joined     *circuitEnd // rendezvous splice
	streams    map[uint16]net.Conn
}

// kill severs the circuit's inbound link. The link reader then exits and
// enqueues the teardown sentinel, so teardown still happens on the
// worker after every cell read before the failure.
func (ce *circuitEnd) kill() { ce.conn.Close() }

// pace stalls the circuit's link reader while any egress queue its
// forward cells feed is above the spill high-water mark. This is the
// per-circuit flow control of the pipelined datapath: the worker never
// blocks on a slow egress (it spills), and the reader — one link is one
// circuit — stops pulling new cells instead, pushing backpressure to
// the sender exactly as the old blocking per-circuit loop did. Without
// it a bulk sender could pump an arbitrarily long transfer into a
// bounded spill queue and have the circuit killed for overflowing it.
func (ce *circuitEnd) pace() {
	ce.fwdSpill.waitBelow(spillHighWater)
	ce.mu.Lock()
	joined := ce.joined
	ce.mu.Unlock()
	if joined != nil {
		joined.bwSpill.waitBelow(spillHighWater)
	}
}

// serveConn handles one inbound link (= one circuit): the CREATE
// handshake, then readCircuit.
func (r *Relay) serveConn(conn net.Conn) {
	defer r.serveWG.Done()
	r.connMu.Lock()
	r.conns[conn] = struct{}{}
	r.connMu.Unlock()
	defer func() {
		r.connMu.Lock()
		delete(r.conns, conn)
		r.connMu.Unlock()
		conn.Close()
	}()

	// First cell must be CREATE.
	wire := make([]byte, cell.Size)
	if err := cell.ReadWire(conn, wire); err != nil {
		return
	}
	if cell.WireCmd(wire) != cell.CmdCreate {
		return
	}
	circID := cell.WireCircID(wire)
	reply, keys, err := otr.ServerHandshake([]byte(r.Fingerprint()), r.onion, cell.WirePayload(wire)[:otr.PublicKeyLen])
	if err != nil {
		r.logf("handshake failed: %v", err)
		return
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		return
	}
	prevW := cell.NewBatchWriterObs(conn, r.m.flush)
	defer prevW.Close()
	created := &cell.Cell{CircID: circID, Cmd: cell.CmdCreated}
	copy(created.Payload[:], reply)
	if err := prevW.WriteCell(created); err != nil {
		return
	}
	r.readCircuit(r.newCircuit(conn, circID, layer, prevW), wire)
}

// newCircuit registers this relay's end of a circuit whose CREATE
// handshake over conn yielded layer.
func (r *Relay) newCircuit(conn net.Conn, circID uint32, layer *otr.Layer, prevW *cell.BatchWriter) *circuitEnd {
	ce := &circuitEnd{
		relay:   r,
		serial:  r.circSerial.Add(1),
		circID:  circID,
		conn:    conn,
		prevW:   prevW,
		layer:   layer,
		bwWire:  make([]byte, cell.Size),
		streams: make(map[uint16]net.Conn),
	}
	ce.worker = r.fwd.workerFor(circID)
	ce.bwSpill.init(prevW, r.m.spilled)
	r.circuits.Put(ce.serial, ce)
	r.m.circCreated.Inc()
	r.m.openCircs.Add(1)
	return ce
}

// readCircuit is the link reader of an established circuit. Its only
// job is moving runs of whole cells from the wire onto the circuit's
// affinity-worker queue; all crypto and dispatch happen on the worker
// (see forwarder). wire is the reader's one-cell buffer — all it holds
// while it waits for the link; a burst is taken when a cell has arrived
// and is the worker's from the enqueue on.
func (r *Relay) readCircuit(ce *circuitEnd, wire []byte) {
	// Teardown runs on the worker, strictly after the last enqueued cell:
	// the sentinel is this reader's final word on the circuit.
	defer r.fwd.enqueue(ce.worker, fwdTask{ce: ce})

	for {
		run, err := cell.ReadRun(ce.conn, wire)
		if err != nil {
			return
		}
		end := relayCells(run, true)
		if run.N > 0 {
			// Run ownership passes to the worker; pace first so a congested
			// egress stalls this link instead of overflowing the circuit's
			// spill queue.
			ce.pace()
			r.fwd.enqueue(ce.worker, fwdTask{ce: ce, run: run})
		} else {
			cell.PutBurst(run)
		}
		if end != cell.CmdRelay {
			if end != cell.CmdDestroy {
				r.logf("unexpected cell %v mid-circuit", end)
			}
			return
		}
	}
}

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

// dispatchRelay acts on one recognized relay cell other than DATA, which
// finishRun gathers and hands to handleData a run at a time.
func (r *Relay) dispatchRelay(ce *circuitEnd, hdr cell.RelayHeader, data []byte) bool {
	switch hdr.Cmd {
	case cell.RelayExtend:
		return r.handleExtend(ce, hdr, data)
	case cell.RelayBegin:
		return r.handleBegin(ce, hdr, data)
	case cell.RelayEnd:
		ce.closeStream(hdr.StreamID)
		return true
	case cell.RelayDrop:
		// Cover traffic: absorbed here by design.
		return true
	case cell.RelayEstablishIntro:
		return r.handleEstablishIntro(ce, hdr, data)
	case cell.RelayIntroduce1:
		return r.handleIntroduce1(ce, hdr, data)
	case cell.RelayEstablishRendezvous:
		return r.handleEstablishRendezvous(ce, hdr, data)
	case cell.RelayRendezvous1:
		return r.handleRendezvous1(ce, hdr, data)
	default:
		r.logf("unhandled relay command %v", hdr.Cmd)
		return true
	}
}

// handleExtend dials the requested next hop, performs CREATE/CREATED on
// behalf of the client, and returns the reply in an EXTENDED cell.
func (r *Relay) handleExtend(ce *circuitEnd, hdr cell.RelayHeader, data []byte) bool {
	var ext cell.ExtendPayload
	if err := cell.DecodeControl(data, &ext); err != nil {
		return false
	}
	ce.mu.Lock()
	already := ce.nextW != nil
	ce.mu.Unlock()
	if already {
		r.logf("EXTEND on already-extended circuit")
		return false
	}
	sp := r.reg.StartSpan("relay.extend")
	sp.Note(ext.Addr)
	nextConn, err := r.host.Dial(ext.Addr)
	if err != nil {
		r.logf("extend dial %s: %v", ext.Addr, err)
		r.m.extendFails.Inc()
		sp.Fail(err)
		sp.End()
		return false
	}
	var circID [4]byte
	rand.Read(circID[:])
	nextID := uint32(circID[0])<<24 | uint32(circID[1])<<16 | uint32(circID[2])<<8 | uint32(circID[3])
	nextW := cell.NewBatchWriterObs(nextConn, r.m.flush)
	create := &cell.Cell{CircID: nextID, Cmd: cell.CmdCreate}
	copy(create.Payload[:], ext.Handshake)
	if err := nextW.WriteCell(create); err != nil {
		nextW.Close()
		r.m.extendFails.Inc()
		sp.Fail(err)
		sp.End()
		return false
	}
	reply := new(cell.Cell)
	if err := cell.ReadInto(nextConn, reply); err != nil || reply.Cmd != cell.CmdCreated {
		nextW.Close()
		r.m.extendFails.Inc()
		sp.End()
		return false
	}
	ce.fwdSpill.init(nextW, r.m.spilled)
	ce.mu.Lock()
	ce.nextW = nextW
	ce.nextCircID = nextID
	ce.mu.Unlock()
	go ce.backwardPump(nextConn)
	r.m.extends.Inc()
	sp.End()

	extended, err := cell.EncodeControl(&cell.ExtendedPayload{
		Reply: reply.Payload[:otr.PublicKeyLen+otr.AuthLen],
	})
	if err != nil {
		return false
	}
	return ce.sendBackward(cell.RelayHeader{Cmd: cell.RelayExtended}, extended) == nil
}

// backwardPump forwards cells arriving from the next hop toward the
// client, adding this hop's backward encryption layer, a run at a time.
// Like the forward reader it waits on a one-cell buffer and holds a
// burst only between a cell's arrival and the run's hand-off.
func (ce *circuitEnd) backwardPump(next net.Conn) {
	wire := make([]byte, cell.Size)
	for {
		run, err := cell.ReadRun(next, wire)
		if err != nil {
			ce.destroyFromBehind()
			return
		}
		end := relayCells(run, false)
		// A dedicated per-circuit goroutine: blocking on the client link
		// is safe and is the backward path's backpressure.
		err = ce.relayBackwardRun(run.Frames(), true)
		cell.PutBurst(run)
		if err != nil {
			return
		}
		if end == cell.CmdDestroy {
			ce.destroyFromBehind()
			return
		}
	}
}

// relayBackwardRun applies this hop's backward keystream to a run of
// whole wire frames in place, restamps their circuit ID, and enqueues
// the run toward the client — one bwMu hold and one writer enqueue for
// the run. The frames are the caller's buffer; the enqueue copies, so
// the caller may reuse it as soon as this returns. mayBlock selects
// between stream backpressure (dedicated goroutines) and the
// non-blocking spill path (the affinity worker on a rendezvous splice).
func (ce *circuitEnd) relayBackwardRun(frames []byte, mayBlock bool) error {
	if len(frames) == 0 {
		return nil
	}
	ce.relay.m.bwdCells.Add(int64(len(frames) / cell.Size))
	ce.bwMu.Lock()
	defer ce.bwMu.Unlock()
	for off := 0; off < len(frames); off += cell.Size {
		wire := frames[off : off+cell.Size]
		ce.layer.ApplyBackward(cell.WirePayload(wire))
		cell.SetWireCircID(wire, ce.circID)
		cell.SetWireCmd(wire, cell.CmdRelay)
	}
	return ce.bwSpill.sendFrames(frames, mayBlock)
}

// sendBackward originates a backward relay cell at this hop (control
// responses, stream ends): pack, seal with the backward digest, and
// encrypt in the reused scratch frame, then enqueue a copy toward the
// client. Callers may be workers, so the enqueue never blocks; a
// control cell that cannot even spill means a dead client link.
func (ce *circuitEnd) sendBackward(hdr cell.RelayHeader, data []byte) error {
	ce.relay.m.originated.Inc()
	ce.bwMu.Lock()
	defer ce.bwMu.Unlock()
	payload := cell.WirePayload(ce.bwWire)
	if err := cell.PackRelay(payload, hdr, data); err != nil {
		return err
	}
	ce.layer.SealBackward(payload, cell.DigestOffset)
	ce.layer.ApplyBackward(payload)
	cell.SetWireCircID(ce.bwWire, ce.circID)
	cell.SetWireCmd(ce.bwWire, cell.CmdRelay)
	return ce.bwSpill.sendFrames(ce.bwWire, false)
}

// bwBatchCells sizes the backward batch: one exit read turns into up to
// this many DATA cells sealed and encrypted in a single crypto pass.
const bwBatchCells = 16

// sendBackwardBatch originates a run of backward DATA cells from one
// contiguous buffer: pack up to bwBatchCells frames into the reused
// batch scratch, fold the rolling digest over the run, generate one
// keystream for all of it (byte-identical to per-cell sends), and hand
// the whole run to the client-side writer. Runs from dedicated exit
// goroutines, so a full link blocks (stream backpressure) rather than
// spilling unboundedly.
func (ce *circuitEnd) sendBackwardBatch(streamID uint16, data []byte) error {
	for len(data) > 0 {
		ce.bwMu.Lock()
		if ce.bwBatch == nil {
			ce.bwBatch = make([]byte, bwBatchCells*cell.Size)
			ce.bwViews = make([][]byte, 0, bwBatchCells)
		}
		views := ce.bwViews[:0]
		n := 0
		for len(data) > 0 && n < bwBatchCells {
			chunk := data
			if len(chunk) > cell.MaxRelayData {
				chunk = chunk[:cell.MaxRelayData]
			}
			frame := ce.bwBatch[n*cell.Size : (n+1)*cell.Size]
			payload := cell.WirePayload(frame)
			if err := cell.PackRelay(payload, cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayData}, chunk); err != nil {
				ce.bwMu.Unlock()
				return err
			}
			cell.SetWireCircID(frame, ce.circID)
			cell.SetWireCmd(frame, cell.CmdRelay)
			views = append(views, payload)
			data = data[len(chunk):]
			n++
		}
		ce.bwViews = views
		ce.relay.m.originated.Add(int64(n))
		ce.layer.SealBackwardBatch(views, cell.DigestOffset)
		ce.layer.ApplyBackwardBatch(views, &ce.bwScratch)
		err := ce.bwSpill.sendFrames(ce.bwBatch[:n*cell.Size], true)
		ce.bwMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// handleBegin opens an exit stream, enforcing the exit policy. The special
// host "localhost" resolves to the relay's own machine, which is how
// clients reach a co-resident Bento server through an exit circuit.
func (r *Relay) handleBegin(ce *circuitEnd, hdr cell.RelayHeader, data []byte) bool {
	var begin cell.BeginPayload
	if err := cell.DecodeControl(data, &begin); err != nil {
		return false
	}
	host, port, ok := splitTarget(begin.Target)
	if !ok {
		return endStream(ce, hdr.StreamID, "bad target")
	}
	policyHost := host
	if host == "localhost" {
		host = r.host.Name()
	}
	if !r.cfg.ExitPolicy.Allows(policyHost, port) {
		r.logf("exit policy refuses %s:%d", policyHost, port)
		r.m.streamsRefused.Inc()
		return endStream(ce, hdr.StreamID, "exit policy refused")
	}
	remote, err := r.host.Dial(fmt.Sprintf("%s:%d", host, port))
	if err != nil {
		r.m.streamsRefused.Inc()
		return endStream(ce, hdr.StreamID, "connect failed")
	}
	ce.mu.Lock()
	if ce.destroyed.Load() {
		ce.mu.Unlock()
		remote.Close()
		return false
	}
	ce.streams[hdr.StreamID] = remote
	ce.mu.Unlock()

	r.m.streamsOpened.Inc()
	// CONNECTED goes out before the reader exists: a destination that
	// answers and hangs up at once must not get its DATA or END onto the
	// circuit ahead of it (the client would read "stream refused").
	if ce.sendBackward(cell.RelayHeader{StreamID: hdr.StreamID, Cmd: cell.RelayConnected}, nil) != nil {
		ce.closeStream(hdr.StreamID)
		return false
	}
	go ce.exitReader(hdr.StreamID, remote)
	return true
}

// exitReader pumps data from the external destination back down the
// circuit as DATA cells. It reads a whole batch worth of bytes at a
// time, so a fast destination turns into batched seal/encrypt passes
// instead of one crypto call per cell.
func (ce *circuitEnd) exitReader(streamID uint16, remote net.Conn) {
	buf := make([]byte, bwBatchCells*cell.MaxRelayData)
	for {
		n, err := remote.Read(buf)
		if n > 0 {
			if werr := ce.sendBackwardBatch(streamID, buf[:n]); werr != nil {
				remote.Close()
				return
			}
		}
		if err != nil {
			end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "eof"})
			ce.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayEnd}, end)
			ce.closeStream(streamID)
			return
		}
	}
}

// handleData writes the gathered data of one or more consecutive DATA
// cells of a stream to its destination in one Write.
func (r *Relay) handleData(ce *circuitEnd, streamID uint16, data []byte) {
	ce.mu.Lock()
	remote := ce.streams[streamID]
	ce.mu.Unlock()
	if remote == nil {
		// Stream already closed; tolerate in-flight data.
		return
	}
	if _, err := remote.Write(data); err != nil {
		ce.closeStream(streamID)
	}
}

func (ce *circuitEnd) closeStream(streamID uint16) {
	ce.mu.Lock()
	remote := ce.streams[streamID]
	delete(ce.streams, streamID)
	ce.mu.Unlock()
	if remote != nil {
		remote.Close()
	}
}

func endStream(ce *circuitEnd, streamID uint16, reason string) bool {
	end, err := cell.EncodeControl(&cell.EndPayload{Reason: reason})
	if err != nil {
		return false
	}
	return ce.sendBackward(cell.RelayHeader{StreamID: streamID, Cmd: cell.RelayEnd}, end) == nil
}

// --- Hidden-service duties -------------------------------------------------

func (r *Relay) handleEstablishIntro(ce *circuitEnd, _ cell.RelayHeader, data []byte) bool {
	var est cell.EstablishIntroPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if !verifyIntroSig(est) {
		r.logf("ESTABLISH_INTRO bad signature for %s", est.ServiceID)
		return false
	}
	r.intros.Put(est.ServiceID, ce)
	return ce.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroEstablished}, nil) == nil
}

func (r *Relay) handleIntroduce1(ce *circuitEnd, _ cell.RelayHeader, data []byte) bool {
	var intro cell.Introduce1Payload
	if err := cell.DecodeControl(data, &intro); err != nil {
		return false
	}
	svc, _ := r.intros.Get(intro.ServiceID)
	if svc == nil {
		r.logf("INTRODUCE1 for unknown service %s", intro.ServiceID)
		return endIntroduce(ce, "no such service")
	}
	// Forward the opaque inner payload to the service as INTRODUCE2.
	if err := svc.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroduce2}, intro.Inner); err != nil {
		return endIntroduce(ce, "service unreachable")
	}
	r.m.introsForwarded.Inc()
	return ce.sendBackward(cell.RelayHeader{Cmd: cell.RelayIntroduceAck}, nil) == nil
}

func endIntroduce(ce *circuitEnd, reason string) bool {
	data, _ := cell.EncodeControl(&cell.EndPayload{Reason: reason})
	return ce.sendBackward(cell.RelayHeader{Cmd: cell.RelayEnd}, data) == nil
}

func (r *Relay) handleEstablishRendezvous(ce *circuitEnd, _ cell.RelayHeader, data []byte) bool {
	var est cell.EstablishRendezvousPayload
	if err := cell.DecodeControl(data, &est); err != nil {
		return false
	}
	if len(est.Cookie) < 8 {
		return false
	}
	key := hex.EncodeToString(est.Cookie)
	r.rendezvous.Put(key, ce)
	return ce.sendBackward(cell.RelayHeader{Cmd: cell.RelayRendezvousEstablished}, nil) == nil
}

func (r *Relay) handleRendezvous1(ce *circuitEnd, _ cell.RelayHeader, data []byte) bool {
	var rv cell.Rendezvous1Payload
	if err := cell.DecodeControl(data, &rv); err != nil {
		return false
	}
	key := hex.EncodeToString(rv.Cookie)
	client, _ := r.rendezvous.GetAndDelete(key)
	if client == nil {
		r.logf("RENDEZVOUS1 with unknown cookie")
		return false
	}
	// Splice the two circuits.
	client.mu.Lock()
	client.joined = ce
	client.mu.Unlock()
	ce.mu.Lock()
	ce.joined = client
	ce.mu.Unlock()

	reply, err := cell.EncodeControl(&cell.Rendezvous2Payload{Reply: rv.Reply})
	if err != nil {
		return false
	}
	r.m.rendSplices.Inc()
	return client.sendBackward(cell.RelayHeader{Cmd: cell.RelayRendezvous2}, reply) == nil
}

// --- teardown ---------------------------------------------------------------

func (ce *circuitEnd) teardown() {
	if !ce.destroyed.CompareAndSwap(false, true) {
		return
	}
	ce.mu.Lock()
	nextW := ce.nextW
	joined := ce.joined
	streams := ce.streams
	ce.streams = map[uint16]net.Conn{}
	ce.mu.Unlock()
	ce.relay.circuits.Delete(ce.serial)
	ce.relay.m.circDestroyed.Inc()
	ce.relay.m.openCircs.Add(-1)

	for _, s := range streams {
		s.Close()
	}
	if nextW != nil {
		nextW.WriteCell(&cell.Cell{CircID: ce.nextCircID, Cmd: cell.CmdDestroy})
		nextW.Close() // flushes the DESTROY, then closes the link
	}
	if joined != nil {
		joined.mu.Lock()
		joined.joined = nil
		joined.mu.Unlock()
		// Rendezvous teardown propagates to the other side, as a DESTROY
		// does on a normal circuit.
		joined.destroyFromBehind()
	}
	ce.cleanupRelayMaps()
}

// destroyFromBehind tears the circuit down when the next hop vanished.
func (ce *circuitEnd) destroyFromBehind() {
	if ce.destroyed.Load() {
		return
	}
	ce.prevW.WriteCell(&cell.Cell{CircID: ce.circID, Cmd: cell.CmdDestroy})
	ce.prevW.Close() // flushes, then closes the link, unblocking serveConn
}

func (ce *circuitEnd) cleanupRelayMaps() {
	r := ce.relay
	r.rendezvous.DeleteIf(func(_ string, v *circuitEnd) bool { return v == ce })
	r.intros.DeleteIf(func(_ string, v *circuitEnd) bool { return v == ce })
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
