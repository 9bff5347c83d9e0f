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
	"sync"

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
	host   *simnet.Host
	cfg    Config
	idPub  ed25519.PublicKey
	idPriv ed25519.PrivateKey
	onion  *otr.OnionKey
	ln     net.Listener
	reg    *obs.Registry
	m      relayMetrics

	mu sync.Mutex
	// The hidden-service registrations. No circuit is kept here for its
	// own sake (callbacks carry it), and none of the tables is on the
	// per-cell path. mu is taken after a circuit's mu, never before it.
	rendezvous map[string]*circuit // cookie (hex) -> waiting client circuit
	intros     map[string]*circuit // service ID -> intro circuit
	hsdir      map[string][]byte   // service ID -> raw descriptor (HSDir duty)
	hsdirLn    net.Listener        // nil unless ServeHSDir ran
	closed     bool
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
	reg := host.Network().Obs()
	r := &Relay{
		host:   host,
		cfg:    cfg,
		reg:    reg,
		m:      newRelayMetrics(reg),
		idPub:  idPub,
		idPriv: idPriv,
		onion:  onion,

		rendezvous: make(map[string]*circuit),
		intros:     make(map[string]*circuit),
		hsdir:      make(map[string][]byte),
	}
	if r.ln, err = host.ListenFunc(ORPort, func(conn simnet.LightConn) { r.serve(conn) }); err != nil {
		return nil, err
	}
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

// Close shuts the relay down gracefully: no new connections, and the
// HSDir listener closes too; existing circuits continue until their
// endpoints close them.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	hsdir := r.hsdirLn
	r.mu.Unlock()
	if hsdir != nil {
		hsdir.Close()
	}
	return r.ln.Close()
}

func (r *Relay) logf(format string, args ...any) {
	if !r.cfg.Quiet {
		log.Printf("relay %s: "+format, append([]any{r.cfg.Nickname}, args...)...)
	}
}
