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
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

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

	// fwd is the goroutine transport's worker pool; serveWG counts the
	// accept loop plus every live link reader, so Close can stop the
	// workers only after the last possible enqueuer is gone.
	fwd        *forwarder
	serveWG    sync.WaitGroup
	circSerial atomic.Uint64

	// Control-plane tables, all sharded — nothing here is on the
	// per-cell forward path. Circuits are keyed by a unique serial
	// (circuit IDs are per-link random and may collide across links).
	circuits   *shardedTable[uint64, *circuit]
	rendezvous *shardedTable[string, *circuit] // cookie (hex) -> waiting client circuit
	intros     *shardedTable[string, *circuit] // service ID -> intro circuit
	hsdir      *shardedTable[string, []byte]   // service ID -> raw descriptor (HSDir duty)

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // live inbound links, for Crash
}

// initTables builds the relay's sharded control-plane tables, wiring
// shard-lock acquisition waits into the contention histogram.
func (r *Relay) initTables() {
	r.circuits = newShardedTable[uint64, *circuit](hashU64, r.m.shardWait)
	r.rendezvous = newShardedTable[string, *circuit](fnv32, r.m.shardWait)
	r.intros = newShardedTable[string, *circuit](fnv32, r.m.shardWait)
	r.hsdir = newShardedTable[string, []byte](fnv32, r.m.shardWait)
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

// track notes (or forgets) a live inbound link.
func (r *Relay) track(conn net.Conn, live bool) {
	r.connMu.Lock()
	if live {
		r.conns[conn] = struct{}{}
	} else {
		delete(r.conns, conn)
	}
	r.connMu.Unlock()
}

func (r *Relay) acceptLoop() {
	defer r.serveWG.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		// The transport follows from what the link is, not from a knob: on
		// the event clock a simnet link is served by deliver callbacks, with
		// no goroutine of its own (ingress.go); anything else gets a reader
		// goroutine and the worker pool (datapath.go).
		if lc, ok := conn.(simnet.LightConn); ok && r.host.Clock().EventDriven() {
			r.serveLight(lc)
			continue
		}
		r.serveWG.Add(1)
		go r.serveConn(conn)
	}
}
