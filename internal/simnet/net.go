package simnet

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Network is a registry of emulated hosts plus the link parameters between
// them. All hosts share one virtual Clock.
type Network struct {
	clock *Clock
	// chaos is the optional fault-injection controller (see EnableChaos);
	// nil means a perfect network.
	chaos atomic.Pointer[Chaos]
	// obsm is the optional telemetry hook bundle (see SetObs); nil means
	// every instrumentation point is a no-op.
	obsm atomic.Pointer[netMetrics]

	mu           sync.RWMutex
	hosts        map[string]*Host
	defaultDelay time.Duration
	delays       map[[2]string]time.Duration
	delayFn      func(a, b string) (time.Duration, bool)
}

// NewNetwork creates an empty network. defaultDelay is the one-way
// propagation delay applied between any pair of hosts without an explicit
// override.
func NewNetwork(clock *Clock, defaultDelay time.Duration) *Network {
	return &Network{
		clock:        clock,
		hosts:        make(map[string]*Host),
		defaultDelay: defaultDelay,
		delays:       make(map[[2]string]time.Duration),
	}
}

// Clock returns the network's virtual clock.
func (n *Network) Clock() *Clock { return n.clock }

// AddHost registers a host. egressRate is the host's uplink bandwidth in
// bytes per virtual second (0 = unlimited). Adding a duplicate name panics:
// topology is fixed by the experiment harness, so this is programmer error.
func (n *Network) AddHost(name string, egressRate float64) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[name]; ok {
		panic(fmt.Sprintf("simnet: duplicate host %q", name))
	}
	// listeners and conns are lazily allocated: a six-figure fleet of
	// client hosts that only ever Dial should not pay two map headers
	// (~100 B) apiece for maps they never or only transiently use.
	h := &Host{
		net:    n,
		name:   name,
		egress: NewTokenBucket(n.clock, egressRate, 64*1024),
	}
	if m := n.metrics(); m != nil {
		h.egress.setObs(m.egressWaitNs)
	}
	n.hosts[name] = h
	return h
}

// Host returns the named host, or nil if it does not exist.
func (n *Network) Host(name string) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[name]
}

// Hosts returns the names of all registered hosts.
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	names := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		names = append(names, name)
	}
	return names
}

// SetDelay overrides the symmetric one-way propagation delay between two
// hosts.
func (n *Network) SetDelay(a, b string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delays[delayKey(a, b)] = d
}

// SetDelayFunc installs a computed delay source, consulted after
// explicit SetDelay overrides but before the default. At six-figure
// host counts a per-pair map entry costs ~50 bytes per host; a pure
// function derived from the host names costs nothing to hold. fn must
// be pure (same pair → same delay) to keep runs deterministic, and
// returns false to fall through to the default.
func (n *Network) SetDelayFunc(fn func(a, b string) (time.Duration, bool)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delayFn = fn
}

// Delay reports the one-way propagation delay between two hosts.
func (n *Network) Delay(a, b string) time.Duration {
	if a == b {
		return 0 // loopback
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.delays) > 0 {
		if d, ok := n.delays[delayKey(a, b)]; ok {
			return d
		}
	}
	if n.delayFn != nil {
		if d, ok := n.delayFn(a, b); ok {
			return d
		}
	}
	return n.defaultDelay
}

func delayKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Host is an emulated machine: a name, a shared egress token bucket, and a
// set of listening ports.
type Host struct {
	net    *Network
	name   string
	egress *TokenBucket

	mu        sync.Mutex
	listeners map[int]*listener
	conns     map[*conn]struct{} // live endpoints on this host, for Crash
	nextPort  int
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Clock returns the network clock.
func (h *Host) Clock() *Clock { return h.net.clock }

// SetEgressRate changes the host's uplink bandwidth (bytes per virtual
// second; 0 = unlimited).
func (h *Host) SetEgressRate(rate float64) { h.egress.SetRate(rate) }

// Listen opens a listener on the given port, whose Accept parks for the
// next connection.
func (h *Host) Listen(port int) (net.Listener, error) { return h.ListenFunc(port, nil) }

// ListenFunc opens a listener on the given port that holds no goroutine:
// accept is handed each fresh server endpoint in the dial's timer
// callback (on the dispatcher on the event clock), before the dialer's
// callback runs, so it can install its deliver callback before the first
// byte arrives. accept must not block. Nothing is queued for the
// listener's Accept, which only waits for Close. A nil accept is Listen.
func (h *Host) ListenFunc(port int, accept func(LightConn)) (net.Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.listeners[port]; ok {
		return nil, fmt.Errorf("simnet: %s:%d already in use", h.name, port)
	}
	if h.listeners == nil {
		h.listeners = make(map[int]*listener)
	}
	l := &listener{host: h, port: port, accept: accept}
	l.acceptors = Cond{L: &l.mu, clock: h.net.clock}
	h.listeners[port] = l
	return l, nil
}

// Dial connects to "host:port", applying connection-setup propagation
// delay. The returned net.Conn's traffic is shaped by both endpoints'
// egress buckets and the link delay. It is DialFunc plus one park.
func (h *Host) Dial(target string) (net.Conn, error) {
	var mu sync.Mutex
	dialed := Cond{L: &mu, clock: h.net.clock}
	var c LightConn // a dial yields a conn or an error
	var err error
	h.DialFunc(target, func(lc LightConn, e error) {
		mu.Lock()
		c, err = lc, e
		mu.Unlock()
		dialed.Broadcast()
	})
	mu.Lock()
	defer mu.Unlock()
	for c == nil && err == nil {
		dialed.Wait()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DialFunc connects to "host:port" without parking the caller: fn runs
// once, in timer/dispatcher context, with the established conn after the
// handshake's round trip, or with the reason there is none. A target
// that does not resolve or refuses is reported at once (after no delay).
// fn must not block.
func (h *Host) DialFunc(target string, fn func(LightConn, error)) {
	clock := h.net.clock
	m := h.net.metrics()
	l, err := h.route(target)
	if err != nil {
		if m != nil {
			m.dialFailures.Inc()
		}
		clock.AfterFunc(0, func() { fn(nil, err) })
		return
	}
	h.mu.Lock()
	h.nextPort++
	lport := 40000 + h.nextPort
	h.mu.Unlock()

	cl, sv := newConnPair(h, l.host, lport, l.port)
	// One round trip of handshake latency before the connection exists.
	clock.AfterFunc(2*h.net.Delay(h.name, l.host.name), func() {
		if !l.push(sv) {
			cl.Close()
			sv.Close()
			if m != nil {
				m.dialFailures.Inc()
			}
			fn(nil, fmt.Errorf("simnet: connection refused: %s", target))
			return
		}
		if m != nil {
			m.dials.Inc()
		}
		fn(cl, nil)
	})
}

// route finds the listener a dial to target reaches, or why none does.
func (h *Host) route(target string) (*listener, error) {
	thost, tport, err := splitHostPort(target)
	if err != nil {
		return nil, err
	}
	remote := h.net.Host(thost)
	if remote == nil {
		return nil, fmt.Errorf("simnet: no route to host %q", thost)
	}
	if ch := h.net.Chaos(); ch != nil {
		if err := ch.dialErr(h.name, thost); err != nil {
			if m := h.net.metrics(); m != nil {
				m.chaosDialFails.Inc()
			}
			return nil, err
		}
	}
	remote.mu.Lock()
	l, ok := remote.listeners[tport]
	remote.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simnet: connection refused: %s", target)
	}
	return l, nil
}

// registerConn records a live endpoint for crash severing.
func (h *Host) registerConn(c *conn) {
	h.mu.Lock()
	if h.conns == nil {
		h.conns = make(map[*conn]struct{})
	}
	h.conns[c] = struct{}{}
	h.mu.Unlock()
}

// unregisterConn forgets a closed endpoint. The map is dropped when it
// empties: Go maps never shrink their bucket arrays, and a parked
// client host should cost nothing for connections it used to have.
func (h *Host) unregisterConn(c *conn) {
	h.mu.Lock()
	delete(h.conns, c)
	if len(h.conns) == 0 {
		h.conns = nil
	}
	h.mu.Unlock()
}

// severAll abruptly closes every live connection touching the host (both
// endpoints, so peers observe a hard failure rather than a graceful EOF).
func (h *Host) severAll() {
	h.mu.Lock()
	conns := make([]*conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.severBoth()
	}
}

type listener struct {
	host   *Host
	port   int
	accept func(LightConn) // ListenFunc's, or nil: queue for Accept

	mu        sync.Mutex
	backlog   []*conn
	acceptors Cond // on mu: the backlog filled, or the listener closed
	closed    bool
}

// push hands the server endpoint of a fresh dial to the listener's
// accept callback or its backlog. It never parks (it runs in a dial's
// timer callback) and reports false when the listener closed first.
func (l *listener) push(c *conn) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	if l.accept == nil {
		l.backlog = append(l.backlog, c)
		l.acceptors.Broadcast()
	}
	l.mu.Unlock()
	if l.accept != nil {
		l.accept(c)
	}
	return true
}

// Accept waits for and returns the next connection.
func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	for {
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			if len(l.backlog) == 0 {
				l.backlog = nil
			}
			l.mu.Unlock()
			return c, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, net.ErrClosed
		}
		l.acceptors.Wait()
	}
}

// Close stops the listener. Pending Accept calls are unblocked.
func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.acceptors.Broadcast()
	l.host.mu.Lock()
	delete(l.host.listeners, l.port)
	l.host.mu.Unlock()
	return nil
}

// Addr returns the listener's address.
func (l *listener) Addr() net.Addr {
	return addr{host: l.host.name, port: l.port}
}

type addr struct {
	host string
	port int
}

func (a addr) Network() string { return "sim" }
func (a addr) String() string  { return fmt.Sprintf("%s:%d", a.host, a.port) }

// splitHostPort splits "host:port". The port is decimal digits only, at
// most 65535: dial targets come from peers (a client's EXTEND).
func splitHostPort(s string) (string, int, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("simnet: missing port in address %q", s)
	}
	p := s[i+1:]
	port, err := strconv.Atoi(p)
	if err != nil || p[0] < '0' || p[0] > '9' || port > 65535 {
		return "", 0, fmt.Errorf("simnet: bad port in %q", s)
	}
	return s[:i], port, nil
}
