// Package hs implements hidden services on the emulated Tor overlay:
// service identities, signed service descriptors published to HSDir relays
// (chosen by a hash ring), introduction-point management, and the client
// rendezvous flow.
//
// The introduce path is pluggable: a service may respond to an
// INTRODUCE2 itself (the normal case) or delegate the rendezvous to a
// replica holding a copy of its identity — which is exactly the mechanism
// the paper's LoadBalancer function (§8) exploits.
package hs

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
)

// ReplicaCount is how many responsible HSDirs a descriptor is stored on.
const ReplicaCount = 2

// Identity is a hidden service's long-lived key material. Copying an
// Identity to another node (as LoadBalancer does) lets that node respond
// to introductions on the service's behalf.
type Identity struct {
	Pub   ed25519.PublicKey
	Priv  ed25519.PrivateKey
	Onion *otr.OnionKey
}

// NewIdentity generates fresh service keys.
func NewIdentity() (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	onion, err := otr.NewOnionKey()
	if err != nil {
		return nil, err
	}
	return &Identity{Pub: pub, Priv: priv, Onion: onion}, nil
}

// ServiceID returns the service's pseudonymous identifier (its "onion
// address"): the hex form of its identity key.
func (id *Identity) ServiceID() string { return hex.EncodeToString(id.Pub) }

// identityWire is the serialized form of an Identity.
type identityWire struct {
	Priv  []byte `json:"priv"`
	Onion []byte `json:"onion"`
}

// Marshal serializes the identity's private material — what LoadBalancer
// copies to a replica ("copies all files, including the hostname and
// private key, to the new instance", §8.2).
func (id *Identity) Marshal() ([]byte, error) {
	return json.Marshal(&identityWire{Priv: id.Priv, Onion: id.Onion.Bytes()})
}

// IdentityFromBytes reconstructs an identity from Marshal output.
func IdentityFromBytes(b []byte) (*Identity, error) {
	var w identityWire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("hs: bad identity blob: %w", err)
	}
	if len(w.Priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("hs: bad identity key length %d", len(w.Priv))
	}
	priv := ed25519.PrivateKey(w.Priv)
	onion, err := otr.OnionKeyFromBytes(w.Onion)
	if err != nil {
		return nil, err
	}
	return &Identity{
		Pub:   priv.Public().(ed25519.PublicKey),
		Priv:  priv,
		Onion: onion,
	}, nil
}

// IntroPoint names one introduction point.
type IntroPoint struct {
	Nickname string `json:"nickname"`
	Addr     string `json:"addr"`
}

// Descriptor is a hidden-service descriptor: the mapping from the
// service's identifier to its introduction points, signed by the service.
type Descriptor struct {
	ServiceID   string       `json:"service_id"`
	OnionKey    []byte       `json:"onion_key"`
	IntroPoints []IntroPoint `json:"intro_points"`
	// PoWBits, when nonzero, demands a hashcash proof of that difficulty
	// on every introduction (§9.4 DDoS defense). Covered by Signature.
	PoWBits   int    `json:"pow_bits,omitempty"`
	Signature []byte `json:"signature,omitempty"`
}

func (d *Descriptor) signingBytes() ([]byte, error) {
	c := *d
	c.Signature = nil
	return json.Marshal(&c)
}

// Sign signs the descriptor with the service identity key.
func (d *Descriptor) Sign(priv ed25519.PrivateKey) error {
	b, err := d.signingBytes()
	if err != nil {
		return err
	}
	d.Signature = ed25519.Sign(priv, b)
	return nil
}

// Verify checks that the descriptor is signed by the key matching its
// ServiceID.
func (d *Descriptor) Verify() error {
	pub, err := hex.DecodeString(d.ServiceID)
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("hs: bad service ID %q", d.ServiceID)
	}
	b, err := d.signingBytes()
	if err != nil {
		return err
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), b, d.Signature) {
		return fmt.Errorf("hs: descriptor signature invalid")
	}
	return nil
}

// ResponsibleHSDirs returns the HSDir relays responsible for a service ID,
// chosen as the ReplicaCount ring-successors of the ID's hash among HSDir
// relays ordered by their own hashed fingerprints.
func ResponsibleHSDirs(cons *dirauth.Consensus, serviceID string) []*dirauth.Descriptor {
	dirs := cons.WithFlag(dirauth.FlagHSDir)
	if len(dirs) == 0 {
		return nil
	}
	type entry struct {
		hash string
		d    *dirauth.Descriptor
	}
	ring := make([]entry, 0, len(dirs))
	for _, d := range dirs {
		h := sha256.Sum256([]byte(d.Fingerprint()))
		ring = append(ring, entry{hex.EncodeToString(h[:]), d})
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	h := sha256.Sum256([]byte(serviceID))
	key := hex.EncodeToString(h[:])
	start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= key })
	n := ReplicaCount
	if n > len(ring) {
		n = len(ring)
	}
	out := make([]*dirauth.Descriptor, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ring[(start+i)%len(ring)].d)
	}
	return out
}

// PublishDescriptor signs (if needed) and uploads a descriptor to its
// responsible HSDirs.
func PublishDescriptor(host *simnet.Host, cons *dirauth.Consensus, d *Descriptor) error {
	reg := host.Network().Obs()
	sp := reg.StartSpan("hs.publish")
	sp.Note(idNote(d.ServiceID))
	err := publishDescriptor(host, cons, d)
	if err != nil {
		reg.Counter("hs.publish_failures").Inc()
		sp.Fail(err)
	} else {
		reg.Counter("hs.descriptors_published").Inc()
	}
	sp.End()
	return err
}

func publishDescriptor(host *simnet.Host, cons *dirauth.Consensus, d *Descriptor) error {
	if err := d.Verify(); err != nil {
		return fmt.Errorf("hs: refusing to publish unsigned descriptor: %w", err)
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	dirs := ResponsibleHSDirs(cons, d.ServiceID)
	if len(dirs) == 0 {
		return fmt.Errorf("hs: no HSDir relays in consensus")
	}
	var firstErr error
	stored := 0
	for _, dir := range dirs {
		addr := fmt.Sprintf("%s:%d", hostOf(dir.Address), relay.HSDirPort)
		if err := relay.StoreHSDescriptor(host, addr, d.ServiceID, raw); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		stored++
	}
	if stored == 0 {
		return fmt.Errorf("hs: descriptor upload failed: %w", firstErr)
	}
	return nil
}

// FetchDescriptor retrieves and verifies a service descriptor from the
// responsible HSDirs.
func FetchDescriptor(host *simnet.Host, cons *dirauth.Consensus, serviceID string) (*Descriptor, error) {
	reg := host.Network().Obs()
	sp := reg.StartSpan("hs.fetch")
	sp.Note(idNote(serviceID))
	d, err := fetchDescriptor(host, cons, serviceID)
	if err != nil {
		reg.Counter("hs.fetch_failures").Inc()
		sp.Fail(err)
	} else {
		reg.Counter("hs.descriptor_fetches").Inc()
	}
	sp.End()
	return d, err
}

func fetchDescriptor(host *simnet.Host, cons *dirauth.Consensus, serviceID string) (*Descriptor, error) {
	dirs := ResponsibleHSDirs(cons, serviceID)
	if len(dirs) == 0 {
		return nil, fmt.Errorf("hs: no HSDir relays in consensus")
	}
	var firstErr error
	for _, dir := range dirs {
		addr := fmt.Sprintf("%s:%d", hostOf(dir.Address), relay.HSDirPort)
		raw, err := relay.FetchHSDescriptor(host, addr, serviceID)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d Descriptor
		if err := json.Unmarshal(raw, &d); err != nil {
			firstErr = err
			continue
		}
		if d.ServiceID != serviceID {
			firstErr = fmt.Errorf("hs: HSDir returned descriptor for wrong service")
			continue
		}
		if err := d.Verify(); err != nil {
			firstErr = err
			continue
		}
		return &d, nil
	}
	return nil, fmt.Errorf("hs: descriptor fetch failed: %w", firstErr)
}

func hostOf(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}

// ServiceConfig configures a hidden service.
type ServiceConfig struct {
	// NumIntroPoints is how many introduction circuits to establish
	// (default 3, as in Tor).
	NumIntroPoints int
	// Handler serves each client connection (ignored when OnIntroduce is
	// overridden).
	Handler func(net.Conn)
	// OnIntroduce, if non-nil, replaces the default local rendezvous
	// response. LoadBalancer uses this to delegate the rendezvous to a
	// replica.
	OnIntroduce func(*cell.IntroducePlaintext)
	// PoWBits demands an introduction proof-of-work of this difficulty
	// (0 disables; max MaxPoWBits).
	PoWBits int
}

// Service is a running hidden service.
type Service struct {
	ident  *Identity
	client *torclient.Client
	cfg    ServiceConfig

	mu         sync.Mutex
	introCircs []*torclient.Circuit
	rendCircs  map[*torclient.Circuit]struct{} // until each closes
	closed     bool
}

// Launch starts a hidden service: it builds introduction circuits,
// registers on each intro point, and publishes the descriptor.
func Launch(client *torclient.Client, ident *Identity, cfg ServiceConfig) (*Service, error) {
	reg := client.Host().Network().Obs()
	sp := reg.StartSpan("hs.launch")
	sp.Note(idNote(ident.ServiceID()))
	s, err := launch(client, ident, cfg)
	if err != nil {
		sp.Fail(err)
	} else {
		reg.Counter("hs.services_launched").Inc()
	}
	sp.End()
	return s, err
}

func launch(client *torclient.Client, ident *Identity, cfg ServiceConfig) (*Service, error) {
	if cfg.NumIntroPoints <= 0 {
		cfg.NumIntroPoints = 3
	}
	if cfg.Handler == nil && cfg.OnIntroduce == nil {
		return nil, fmt.Errorf("hs: service needs a Handler or OnIntroduce")
	}
	if cfg.PoWBits < 0 || cfg.PoWBits > MaxPoWBits {
		return nil, fmt.Errorf("hs: PoWBits %d out of range [0, %d]", cfg.PoWBits, MaxPoWBits)
	}
	s := &Service{ident: ident, client: client, cfg: cfg, rendCircs: make(map[*torclient.Circuit]struct{})}

	cons := client.Consensus()
	pool := cons.Relays
	if len(pool) == 0 {
		return nil, fmt.Errorf("hs: empty consensus")
	}
	var intros []IntroPoint
	for i := 0; i < cfg.NumIntroPoints; i++ {
		ip := pool[(i*7+1)%len(pool)] // spread deterministically
		path, err := threeHopEndingAt(client, cons, ip)
		if err != nil {
			return nil, err
		}
		circ, err := client.BuildCircuit(path)
		if err != nil {
			return nil, fmt.Errorf("hs: intro circuit to %s: %w", ip.Nickname, err)
		}
		if err := circ.EstablishIntro(ident.Priv, ident.ServiceID(), s.handleIntroduce2); err != nil {
			circ.Close()
			return nil, fmt.Errorf("hs: establishing intro at %s: %w", ip.Nickname, err)
		}
		s.mu.Lock()
		s.introCircs = append(s.introCircs, circ)
		s.mu.Unlock()
		intros = append(intros, IntroPoint{Nickname: ip.Nickname, Addr: ip.Address})
	}

	desc := &Descriptor{
		ServiceID:   ident.ServiceID(),
		OnionKey:    ident.Onion.Public(),
		IntroPoints: intros,
		PoWBits:     cfg.PoWBits,
	}
	if err := desc.Sign(ident.Priv); err != nil {
		return nil, err
	}
	if err := PublishDescriptor(client.Host(), cons, desc); err != nil {
		return nil, err
	}
	return s, nil
}

// ServiceID returns the service's identifier.
func (s *Service) ServiceID() string { return s.ident.ServiceID() }

// Identity returns the service's key material (e.g. for replication).
func (s *Service) Identity() *Identity { return s.ident }

func (s *Service) handleIntroduce2(data []byte) {
	reg := s.client.Host().Network().Obs()
	var intro cell.IntroducePlaintext
	if err := cell.DecodeControl(data, &intro); err != nil {
		return
	}
	reg.Counter("hs.introductions_received").Inc()
	// DDoS defense: drop introductions lacking the demanded proof before
	// committing a rendezvous circuit to the client.
	if !VerifyPoW(s.ident.ServiceID(), intro.Cookie, intro.PoWNonce, s.cfg.PoWBits) {
		reg.Counter("hs.pow_rejected").Inc()
		return
	}
	if s.cfg.OnIntroduce != nil {
		s.cfg.OnIntroduce(&intro)
		return
	}
	circ, err := RespondAtRendezvous(s.client, s.ident, &intro, s.cfg.Handler)
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		circ.Close()
		return
	}
	s.rendCircs[circ] = struct{}{}
	s.mu.Unlock()
	// Outside mu: OnClose runs the func at once on a circuit already closed.
	circ.OnClose(func() {
		s.mu.Lock()
		delete(s.rendCircs, circ)
		s.mu.Unlock()
	})
}

// Close tears down all of the service's circuits.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	circs := append([]*torclient.Circuit(nil), s.introCircs...)
	for c := range s.rendCircs {
		circs = append(circs, c)
	}
	s.mu.Unlock()
	for _, c := range circs {
		c.Close()
	}
	return nil
}

// RespondAtRendezvous completes a rendezvous on behalf of the service
// identified by ident: it finishes the ntor handshake from the INTRODUCE2
// payload, builds a circuit to the client's rendezvous point, attaches the
// service layer with the given handler, and sends RENDEZVOUS1.
//
// It is exported (rather than private to Service) because a replica that
// received a copy of the identity and the introduction — the LoadBalancer
// pattern — performs exactly this call.
func RespondAtRendezvous(client *torclient.Client, ident *Identity, intro *cell.IntroducePlaintext, handler func(net.Conn)) (*torclient.Circuit, error) {
	reg := client.Host().Network().Obs()
	sp := reg.StartSpan("hs.rendezvous1")
	sp.Note(intro.RendezvousNick)
	circ, err := respondAtRendezvous(client, ident, intro, handler)
	if err != nil {
		sp.Fail(err)
	} else {
		reg.Counter("hs.rendezvous_responses").Inc()
	}
	sp.End()
	return circ, err
}

func respondAtRendezvous(client *torclient.Client, ident *Identity, intro *cell.IntroducePlaintext, handler func(net.Conn)) (*torclient.Circuit, error) {
	reply, keys, err := otr.ServerHandshake([]byte(ident.ServiceID()), ident.Onion, intro.Handshake)
	if err != nil {
		return nil, fmt.Errorf("hs: service handshake: %w", err)
	}
	cons := client.Consensus()
	rp := cons.Relay(intro.RendezvousNick)
	if rp == nil {
		return nil, fmt.Errorf("hs: rendezvous relay %q not in consensus", intro.RendezvousNick)
	}
	path, err := threeHopEndingAt(client, cons, rp)
	if err != nil {
		return nil, err
	}
	circ, err := client.BuildCircuit(path)
	if err != nil {
		return nil, fmt.Errorf("hs: circuit to rendezvous point: %w", err)
	}
	if err := circ.AttachServiceLayer(keys, handler); err != nil {
		circ.Close()
		return nil, err
	}
	if err := circ.SendRendezvous1(intro.Cookie, reply); err != nil {
		circ.Close()
		return nil, err
	}
	return circ, nil
}

// threeHopEndingAt builds a path [r1, r2, target] with distinct relays,
// preferring fast relays for the intermediate hops.
func threeHopEndingAt(client *torclient.Client, cons *dirauth.Consensus, target *dirauth.Descriptor) ([]*dirauth.Descriptor, error) {
	pool := dirauth.PreferFast(cons.Relays, target.Nickname)
	if len(pool) == 0 {
		return []*dirauth.Descriptor{target}, nil
	}
	if len(pool) == 1 {
		return []*dirauth.Descriptor{pool[0], target}, nil
	}
	i := client.Intn(len(pool))
	j := client.Intn(len(pool) - 1)
	if j >= i {
		j++
	}
	return []*dirauth.Descriptor{pool[i], pool[j], target}, nil
}

// Session is a client's rendezvous connection to a hidden service; it can
// carry multiple streams.
type Session struct {
	Circ *torclient.Circuit
}

// Connect performs the full client-side rendezvous flow: fetch descriptor,
// set up a rendezvous point, introduce, complete the handshake.
func Connect(client *torclient.Client, serviceID string) (*Session, error) {
	reg := client.Host().Network().Obs()
	sp := reg.StartSpan("hs.connect")
	sp.Note(idNote(serviceID))
	sess, err := connect(client, serviceID, &sp)
	if err != nil {
		reg.Counter("hs.connect_failures").Inc()
		sp.Fail(err)
	} else {
		reg.Counter("hs.connects").Inc()
	}
	sp.End()
	return sess, err
}

func connect(client *torclient.Client, serviceID string, sp *obs.SpanHandle) (*Session, error) {
	cons := client.Consensus()
	desc, err := FetchDescriptor(client.Host(), cons, serviceID)
	if err != nil {
		return nil, err
	}
	if len(desc.IntroPoints) == 0 {
		return nil, fmt.Errorf("hs: descriptor has no introduction points")
	}

	// Establish a rendezvous point.
	rendSpan := sp.Child("hs.establish_rendezvous")
	rp := cons.Relays[client.Intn(len(cons.Relays))]
	rendSpan.Note(rp.Nickname)
	rendPath, err := threeHopEndingAt(client, cons, rp)
	if err != nil {
		rendSpan.Fail(err)
		rendSpan.End()
		return nil, err
	}
	rendCirc, err := client.BuildCircuit(rendPath)
	if err != nil {
		err = fmt.Errorf("hs: rendezvous circuit: %w", err)
		rendSpan.Fail(err)
		rendSpan.End()
		return nil, err
	}
	cookie := make([]byte, 20)
	rand.Read(cookie)
	if err := rendCirc.EstablishRendezvous(cookie); err != nil {
		rendCirc.Close()
		rendSpan.Fail(err)
		rendSpan.End()
		return nil, err
	}
	rendSpan.End()

	// Introduce through one of the service's intro points.
	introSpan := sp.Child("hs.introduce")
	introFail := func(err error) error {
		introSpan.Fail(err)
		introSpan.End()
		return err
	}
	ip := desc.IntroPoints[client.Intn(len(desc.IntroPoints))]
	ipDesc := cons.Relay(ip.Nickname)
	if ipDesc == nil {
		rendCirc.Close()
		return nil, introFail(fmt.Errorf("hs: intro point %q not in consensus", ip.Nickname))
	}
	introSpan.Note(ip.Nickname)
	hsHandshake, msg, err := otr.NewClientHandshake([]byte(serviceID), desc.OnionKey)
	if err != nil {
		rendCirc.Close()
		return nil, introFail(err)
	}
	// Pay the service's introduction price, if it demands one.
	nonce, err := SolvePoW(serviceID, cookie, desc.PoWBits)
	if err != nil {
		rendCirc.Close()
		return nil, introFail(err)
	}
	inner, err := cell.EncodeControl(&cell.IntroducePlaintext{
		RendezvousAddr: rp.Address,
		RendezvousNick: rp.Nickname,
		Cookie:         cookie,
		Handshake:      msg,
		PoWNonce:       nonce,
	})
	if err != nil {
		rendCirc.Close()
		return nil, introFail(err)
	}
	introPath, err := threeHopEndingAt(client, cons, ipDesc)
	if err != nil {
		rendCirc.Close()
		return nil, introFail(err)
	}
	introCirc, err := client.BuildCircuit(introPath)
	if err != nil {
		rendCirc.Close()
		return nil, introFail(fmt.Errorf("hs: introduction circuit: %w", err))
	}
	err = introCirc.SendIntroduce1(serviceID, inner)
	introCirc.Close() // single-use
	if err != nil {
		rendCirc.Close()
		return nil, introFail(fmt.Errorf("hs: introduction: %w", err))
	}
	introSpan.End()

	waitSpan := sp.Child("hs.rendezvous2")
	reply, err := rendCirc.AwaitRendezvous2()
	if err != nil {
		rendCirc.Close()
		waitSpan.Fail(err)
		waitSpan.End()
		return nil, err
	}
	keys, err := hsHandshake.Finish(reply)
	if err != nil {
		rendCirc.Close()
		err = fmt.Errorf("hs: completing service handshake: %w", err)
		waitSpan.Fail(err)
		waitSpan.End()
		return nil, err
	}
	if err := rendCirc.AttachRendezvousLayer(keys); err != nil {
		rendCirc.Close()
		waitSpan.Fail(err)
		waitSpan.End()
		return nil, err
	}
	waitSpan.End()
	return &Session{Circ: rendCirc}, nil
}

// Open opens a stream to the hidden service over the session.
func (s *Session) Open() (net.Conn, error) {
	return s.Circ.OpenStream("hs:1")
}

// Close tears down the session circuit.
func (s *Session) Close() error { return s.Circ.Close() }

// Dial is the one-shot convenience: connect and open a single stream.
// Closing the returned connection also tears down the rendezvous circuit.
func Dial(client *torclient.Client, serviceID string) (net.Conn, error) {
	sess, err := Connect(client, serviceID)
	if err != nil {
		return nil, err
	}
	conn, err := sess.Open()
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &sessionConn{Conn: conn, sess: sess}, nil
}

// sessionConn ties a one-shot stream's lifetime to its session circuit.
type sessionConn struct {
	net.Conn
	sess *Session
}

// Close closes both the stream and the rendezvous circuit.
func (c *sessionConn) Close() error {
	c.Conn.Close()
	return c.sess.Close()
}
