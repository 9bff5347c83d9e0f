// Package stemfw implements the Stem firewall of §5.3: the policy-
// enforcement layer through which Bento functions access the co-resident
// Tor instance. The firewall tracks which circuits and hidden services
// each function session owns, mediates every control invocation against
// the session's allowed-call set, and tears down a session's Tor state
// when the function terminates.
package stemfw

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/torclient"
)

// ErrDenied is returned when the firewall blocks an invocation.
var ErrDenied = errors.New("stemfw: denied by firewall")

// DefaultMaxCircuits bounds circuits per function session.
const DefaultMaxCircuits = 8

// Firewall mediates access to one relay's Tor instance.
type Firewall struct {
	tor *torclient.Client

	mu       sync.Mutex
	sessions map[string]*Session
}

// New creates a firewall fronting the given Tor client.
func New(tor *torclient.Client) *Firewall {
	return &Firewall{tor: tor, sessions: make(map[string]*Session)}
}

// Session is one function's window onto the Tor instance.
type Session struct {
	fw      *Firewall
	id      string
	allowed map[string]bool
	maxCirc int

	mu        sync.Mutex
	nextID    int
	circuits  map[int]*torclient.Circuit
	streams   map[int]net.Conn
	services  map[int]*hs.Service
	introQs   map[int]chan []byte
	rendCircs []*torclient.Circuit
	active    int // in-flight rendezvous transfers
	closed    bool
}

// NewSession registers a session for a function (keyed by container ID)
// with the given allowed stem.* calls.
func (fw *Firewall) NewSession(id string, allowedCalls []string) *Session {
	s := &Session{
		fw:       fw,
		id:       id,
		allowed:  make(map[string]bool, len(allowedCalls)),
		maxCirc:  DefaultMaxCircuits,
		circuits: make(map[int]*torclient.Circuit),
		streams:  make(map[int]net.Conn),
		services: make(map[int]*hs.Service),
		introQs:  make(map[int]chan []byte),
	}
	for _, c := range allowedCalls {
		s.allowed[c] = true
	}
	fw.mu.Lock()
	fw.sessions[id] = s
	fw.mu.Unlock()
	return s
}

func (s *Session) check(call string) error {
	if !s.allowed[call] {
		return fmt.Errorf("%w: %s", ErrDenied, call)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: session closed", ErrDenied)
	}
	return nil
}

// CreateCircuit builds a general-purpose 3-hop circuit and returns its
// handle. The firewall caps circuits per session.
func (s *Session) CreateCircuit(destHost string, destPort int) (int, error) {
	if err := s.check("stem.create_circuit"); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if len(s.circuits) >= s.maxCirc {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: circuit limit %d reached", ErrDenied, s.maxCirc)
	}
	s.mu.Unlock()

	path, err := s.fw.tor.PickPath(destHost, destPort)
	if err != nil {
		return 0, err
	}
	circ, err := s.fw.tor.BuildCircuit(path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		circ.Close()
		return 0, fmt.Errorf("%w: session closed", ErrDenied)
	}
	s.nextID++
	s.circuits[s.nextID] = circ
	return s.nextID, nil
}

// OpenStream opens a stream on a session-owned circuit. Functions cannot
// reference circuits they did not create — the firewall's per-session
// handle table is the isolation boundary.
func (s *Session) OpenStream(circHandle int, target string) (int, error) {
	if err := s.check("stem.create_circuit"); err != nil {
		return 0, err
	}
	s.mu.Lock()
	circ := s.circuits[circHandle]
	s.mu.Unlock()
	if circ == nil {
		return 0, fmt.Errorf("%w: unknown circuit handle %d", ErrDenied, circHandle)
	}
	conn, err := circ.OpenStream(target)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.streams[s.nextID] = conn
	return s.nextID, nil
}

// Stream returns a session-owned stream.
func (s *Session) Stream(handle int) (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	conn := s.streams[handle]
	if conn == nil {
		return nil, fmt.Errorf("%w: unknown stream handle %d", ErrDenied, handle)
	}
	return conn, nil
}

// CloseStream closes a session-owned stream.
func (s *Session) CloseStream(handle int) error {
	s.mu.Lock()
	conn := s.streams[handle]
	delete(s.streams, handle)
	s.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("%w: unknown stream handle %d", ErrDenied, handle)
	}
	return conn.Close()
}

// CloseCircuit tears down a session-owned circuit.
func (s *Session) CloseCircuit(handle int) error {
	if err := s.check("stem.close_circuit"); err != nil {
		return err
	}
	s.mu.Lock()
	circ := s.circuits[handle]
	delete(s.circuits, handle)
	s.mu.Unlock()
	if circ == nil {
		return fmt.Errorf("%w: unknown circuit handle %d", ErrDenied, handle)
	}
	return circ.Close()
}

// SendDrop emits a padding cell on a session-owned circuit (the primitive
// behind the Cover function).
func (s *Session) SendDrop(circHandle int, junk []byte) error {
	if err := s.check("stem.create_circuit"); err != nil {
		return err
	}
	s.mu.Lock()
	circ := s.circuits[circHandle]
	s.mu.Unlock()
	if circ == nil {
		return fmt.Errorf("%w: unknown circuit handle %d", ErrDenied, circHandle)
	}
	return circ.SendDrop(junk)
}

// LaunchHiddenService starts a hidden service whose introductions are
// queued for the function to consume (the LoadBalancer front pattern).
// When handler is non-nil introductions are instead served locally.
// In the paper's design this spawns a dedicated Onion Proxy inside the
// container (§5.4); the firewall models that by giving the service its
// own identity while sharing the host's overlay connectivity.
func (s *Session) LaunchHiddenService(ident *hs.Identity, handler func(net.Conn)) (int, error) {
	if err := s.check("stem.launch_hs"); err != nil {
		return 0, err
	}
	cfg := hs.ServiceConfig{Handler: handler}
	var queue chan []byte
	if handler == nil {
		queue = make(chan []byte, 64)
		cfg.OnIntroduce = func(intro *cell.IntroducePlaintext) {
			blob, err := cell.EncodeControl(intro)
			if err != nil {
				return
			}
			select {
			case queue <- blob:
			default: // queue full: drop the introduction (client retries)
			}
		}
	}
	svc, err := hs.Launch(s.fw.tor, ident, cfg)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		svc.Close()
		return 0, fmt.Errorf("%w: session closed", ErrDenied)
	}
	s.nextID++
	s.services[s.nextID] = svc
	if queue != nil {
		s.introQs[s.nextID] = queue
	}
	return s.nextID, nil
}

// NextIntroduction dequeues a pending introduction blob for a queued
// hidden service, or returns nil when none arrives within the timeout
// governed by the caller's polling. Non-blocking.
func (s *Session) NextIntroduction(hsHandle int) ([]byte, error) {
	if err := s.check("stem.launch_hs"); err != nil {
		return nil, err
	}
	s.mu.Lock()
	q := s.introQs[hsHandle]
	s.mu.Unlock()
	if q == nil {
		return nil, fmt.Errorf("%w: unknown hidden service handle %d", ErrDenied, hsHandle)
	}
	select {
	case blob := <-q:
		return blob, nil
	default:
		return nil, nil
	}
}

// RespondAtRendezvous completes a rendezvous on behalf of a service
// identity, serving each connection with handler. Used by replicas. The
// handler runs asynchronously; ActiveTransfers reports in-flight
// connections so balancers can poll replica load (§8.2's "periodic
// messages from replicas describing their load").
func (s *Session) RespondAtRendezvous(ident *hs.Identity, introBlob []byte, handler func(net.Conn)) error {
	if err := s.check("stem.launch_hs"); err != nil {
		return err
	}
	var intro cell.IntroducePlaintext
	if err := cell.DecodeControl(introBlob, &intro); err != nil {
		return fmt.Errorf("stemfw: bad introduction blob: %w", err)
	}
	circ, err := hs.RespondAtRendezvous(s.fw.tor, ident, &intro, handler)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		circ.Close()
		return fmt.Errorf("%w: session closed", ErrDenied)
	}
	s.rendCircs = append(s.rendCircs, circ)
	// A transfer is "active" from the moment we commit to the rendezvous
	// until the client's circuit tears down — so load reports never lag
	// behind assignments.
	s.active++
	s.mu.Unlock()
	circ.OnClose(func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	})
	return nil
}

// ActiveTransfers reports in-flight rendezvous connections.
func (s *Session) ActiveTransfers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Tor exposes the underlying Tor client for host-side helpers that have
// already passed policy checks (e.g. the bento.spawn composition API).
func (s *Session) Tor() *torclient.Client { return s.fw.tor }

// Close tears down everything the session owns. Called when the function
// terminates or is shut down — functions fate-share with their circuits.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	circs := make([]*torclient.Circuit, 0, len(s.circuits)+len(s.rendCircs))
	for _, c := range s.circuits {
		circs = append(circs, c)
	}
	circs = append(circs, s.rendCircs...)
	svcs := make([]*hs.Service, 0, len(s.services))
	for _, svc := range s.services {
		svcs = append(svcs, svc)
	}
	streams := make([]net.Conn, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.circuits = map[int]*torclient.Circuit{}
	s.services = map[int]*hs.Service{}
	s.streams = map[int]net.Conn{}
	s.mu.Unlock()

	for _, st := range streams {
		st.Close()
	}
	for _, c := range circs {
		c.Close()
	}
	for _, svc := range svcs {
		svc.Close()
	}
	s.fw.mu.Lock()
	delete(s.fw.sessions, s.id)
	s.fw.mu.Unlock()
}
