// Package torclient implements the client side (onion proxy) of the
// emulated Tor overlay: circuit construction by telescoping ntor
// handshakes, anonymous streams, hidden-service rendezvous operations, and
// a traffic tap at the client–guard link used by the website-fingerprinting
// experiments.
package torclient

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Client is a Tor client bound to an emulated host.
type Client struct {
	host      *simnet.Host
	consensus *dirauth.Consensus
	reg       *obs.Registry
	m         clientMetrics

	mu   sync.Mutex
	rng  *rand.Rand
	tap  TrafficTap
	ctrl time.Duration            // virtual control-cell timeout
	bad  map[string]time.Duration // relay fingerprint -> virtual expiry
}

// TrafficTap observes cells crossing the client–guard link. dir is +1 for
// outbound (client→guard) and -1 for inbound. at is the virtual time of
// the observation. Taps model an adversary sniffing the client's access
// link, as in §7's fingerprinting setup.
type TrafficTap func(dir int, size int, at time.Duration)

// New creates a client. seed makes path selection reproducible.
func New(host *simnet.Host, consensus *dirauth.Consensus, seed int64) *Client {
	reg := host.Network().Obs()
	return &Client{
		host:      host,
		consensus: consensus,
		reg:       reg,
		m:         newClientMetrics(reg),
		rng:       rand.New(rand.NewSource(seed)),
		ctrl:      DefaultCtrlTimeout,
		bad:       make(map[string]time.Duration),
	}
}

// SetCtrlTimeout overrides how long (in virtual time) the client waits
// for circuit-level control responses before declaring the circuit
// stalled. Lower it in fault-injection tests to speed up detection.
func (c *Client) SetCtrlTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.ctrl = d
	}
}

// CtrlTimeout reports the client's virtual control-cell timeout.
func (c *Client) CtrlTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl
}

// ctrlDeadline returns a channel closed once CtrlTimeout of virtual time
// has passed, and the func that disarms it. Control waits must call stop
// when they return, or each completed round-trip strands a timer and its
// channel for the full timeout (ten virtual minutes by default).
func (c *Client) ctrlDeadline() (expired <-chan struct{}, stop func()) {
	ch := make(chan struct{})
	ctrlDeadlinesArmed.Add(1)
	t := c.Clock().AfterFunc(c.CtrlTimeout(), func() {
		ctrlDeadlinesArmed.Add(-1)
		close(ch)
	})
	return ch, func() {
		if t.Stop() {
			ctrlDeadlinesArmed.Add(-1)
		}
	}
}

// ctrlDeadlinesArmed counts ctrlDeadline timers neither stopped nor
// fired, across all clients; the leak test requires it back at zero.
var ctrlDeadlinesArmed atomic.Int64

// Clock returns the virtual clock of the client's host.
func (c *Client) Clock() *simnet.Clock { return c.host.Clock() }

// Host returns the client's emulated host.
func (c *Client) Host() *simnet.Host { return c.host }

// Consensus returns the directory consensus the client is using.
func (c *Client) Consensus() *dirauth.Consensus { return c.consensus }

// SetConsensus replaces the client's consensus (e.g. after a refresh).
func (c *Client) SetConsensus(cons *dirauth.Consensus) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consensus = cons
}

// SetTrafficTap installs an observer on all subsequently built circuits.
func (c *Client) SetTrafficTap(tap TrafficTap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tap = tap
}

// PickPath chooses a 3-hop path toward dest ("host:port" semantics) using
// the client's seeded RNG.
func (c *Client) PickPath(destHost string, destPort int) ([]*dirauth.Descriptor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.consensus.PickPath(c.rng, destHost, destPort)
}

// PickRelay chooses one relay carrying the given flag.
func (c *Client) PickRelay(flag string) *dirauth.Descriptor {
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := c.consensus.WithFlag(flag)
	if len(pool) == 0 {
		return nil
	}
	return pool[c.rng.Intn(len(pool))]
}

// Intn draws from the client's seeded RNG under the client lock (path
// selection can run from concurrent goroutines, e.g. hidden-service
// rendezvous responses).
func (c *Client) Intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// Int63 draws a random int63 under the client lock.
func (c *Client) Int63() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Int63()
}
