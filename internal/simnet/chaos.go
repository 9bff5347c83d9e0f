package simnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Faults describes the fault parameters injected on one link direction.
// The zero value injects nothing.
type Faults struct {
	// DialFailProb is the probability that a Dial attempt across the link
	// fails with a connection error (SYN loss the emulated TCP gives up
	// on).
	DialFailProb float64
	// LossProb is the per-chunk probability of an emulated packet loss.
	// The byte stream stays reliable — a loss shows up as RetransDelay of
	// extra latency on the chunk, modeling a TCP retransmission.
	LossProb float64
	// RetransDelay is the extra virtual latency charged per lost packet
	// (default 250ms when LossProb > 0).
	RetransDelay time.Duration
	// JitterMax adds a uniform random extra delay in [0, JitterMax) to
	// every chunk.
	JitterMax time.Duration
	// BreakProb is the per-chunk probability that the connection is
	// severed mid-stream (both endpoints observe a hard close).
	BreakProb float64
}

const defaultRetransDelay = 250 * time.Millisecond

// Chaos is the network's fault-injection controller. All draws come from
// RNGs derived from one seed: dial-level faults from a shared sequence,
// chunk-level faults from a per-connection sequence (so one connection's
// fault pattern does not depend on how goroutines interleave across
// connections).
//
// A nil *Chaos injects nothing; every hook in the emulator checks for nil
// first, so a network that never calls EnableChaos behaves byte-for-byte
// as before.
type Chaos struct {
	net *Network

	mu          sync.Mutex
	seed        int64
	rng         *rand.Rand         // dial-level draws
	defaults    Faults             // on every link
	partitioned map[[2]string]bool // directed [from, to]
	// healWaiters holds the resume callbacks of transmit machines stalled
	// on a partitioned link; Heal schedules them as events (no polling).
	healWaiters map[[2]string][]func()
	down        map[string]bool
	connSeq     int64

	logEnabled bool
	eventLog   []string
}

// EnableChaos attaches a fault-injection controller to the network,
// seeded for reproducible fault patterns. Calling it twice panics:
// chaos topology belongs to the experiment harness.
func (n *Network) EnableChaos(seed int64) *Chaos {
	c := &Chaos{
		net:         n,
		seed:        seed,
		rng:         rand.New(rand.NewSource(seed)),
		partitioned: make(map[[2]string]bool),
		healWaiters: make(map[[2]string][]func()),
		down:        make(map[string]bool),
	}
	if !n.chaos.CompareAndSwap(nil, c) {
		panic("simnet: EnableChaos called twice")
	}
	return c
}

// Chaos returns the network's fault controller, or nil when chaos was
// never enabled.
func (n *Network) Chaos() *Chaos { return n.chaos.Load() }

// SetDefaultFaults sets the faults applied to every link.
func (c *Chaos) SetDefaultFaults(f Faults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.defaults = f
}

// Partition blocks the directed link a→b: dials between the two hosts
// fail and in-flight chunks from a to b stall (the reliable stream
// retransmits them once the partition heals).
func (c *Chaos) Partition(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partitioned[[2]string{a, b}] = true
	c.logLocked("partition %s->%s", a, b)
}

// Heal removes the directed partition a→b. Transmit machines stalled on
// the link resume via scheduled events.
func (c *Chaos) Heal(a, b string) {
	key := [2]string{a, b}
	c.mu.Lock()
	delete(c.partitioned, key)
	waiters := c.healWaiters[key]
	delete(c.healWaiters, key)
	c.logLocked("heal %s->%s waiters=%d", a, b, len(waiters))
	c.mu.Unlock()
	c.scheduleResumes(waiters)
}

// HealAll removes every partition and resumes everything stalled.
func (c *Chaos) HealAll() {
	c.mu.Lock()
	c.partitioned = make(map[[2]string]bool)
	var waiters []func()
	for _, ws := range c.healWaiters {
		waiters = append(waiters, ws...)
	}
	c.healWaiters = make(map[[2]string][]func())
	c.logLocked("healall waiters=%d", len(waiters))
	c.mu.Unlock()
	c.scheduleResumes(waiters)
}

// onHeal registers a resume callback for a transmit machine stalled on
// the directed link. If the link is no longer partitioned (the heal
// raced the stall), resume runs immediately.
func (c *Chaos) onHeal(from, to string, resume func()) {
	key := [2]string{from, to}
	c.mu.Lock()
	if !c.partitioned[key] {
		c.mu.Unlock()
		resume()
		return
	}
	c.healWaiters[key] = append(c.healWaiters[key], resume)
	c.logLocked("stall %s->%s", from, to)
	c.mu.Unlock()
	if m := c.net.metrics(); m != nil {
		m.chaosPartitionStall.Inc()
	}
}

// scheduleResumes fires stall-resume callbacks as zero-delay events so
// deliveries released by a heal are ordered by the scheduler rather
// than by whichever goroutine called Heal.
func (c *Chaos) scheduleResumes(waiters []func()) {
	for _, fn := range waiters {
		c.net.clock.AfterFunc(0, fn)
	}
}

// CrashHost simulates the host's machine dying: every live connection
// touching the host is severed abruptly and new connections to or from it
// fail until RestartHost. Listeners survive — a restarted host models a
// machine whose supervised services come back with it.
func (c *Chaos) CrashHost(name string) {
	c.mu.Lock()
	c.down[name] = true
	c.logLocked("crash %s", name)
	c.mu.Unlock()
	if m := c.net.metrics(); m != nil {
		m.chaosCrashes.Inc()
	}
	if h := c.net.Host(name); h != nil {
		h.severAll()
	}
}

// RestartHost brings a crashed host back: new connections are admitted
// again.
func (c *Chaos) RestartHost(name string) {
	c.mu.Lock()
	delete(c.down, name)
	c.logLocked("restart %s", name)
	c.mu.Unlock()
	if m := c.net.metrics(); m != nil {
		m.chaosRestarts.Inc()
	}
}

// CrashHostFor crashes the host, keeps it down for the given virtual
// duration, and restarts it. It blocks the caller; run it in a goroutine
// to schedule a restart alongside a workload.
func (c *Chaos) CrashHostFor(name string, d time.Duration) {
	c.CrashHost(name)
	c.net.clock.Sleep(d)
	c.RestartHost(name)
}

// HostDown reports whether the host is currently crashed.
func (c *Chaos) HostDown(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[name]
}

// dialErr reports why a dial from→to must fail, or nil to let it through.
func (c *Chaos) dialErr(from, to string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[from] || c.down[to] {
		c.logLocked("dialfail-down %s->%s", from, to)
		return fmt.Errorf("simnet: host down: %s", pickDown(c.down, from, to))
	}
	if from == to {
		return nil // loopback carries no link faults
	}
	if c.partitioned[[2]string{from, to}] || c.partitioned[[2]string{to, from}] {
		c.logLocked("dialfail-partition %s->%s", from, to)
		return fmt.Errorf("simnet: network partition between %s and %s", from, to)
	}
	f := c.defaults
	if f.DialFailProb > 0 && c.rng.Float64() < f.DialFailProb {
		c.logLocked("dialfail-chaos %s->%s", from, to)
		return fmt.Errorf("simnet: connection lost dialing %s from %s (chaos)", to, from)
	}
	return nil
}

func pickDown(down map[string]bool, from, to string) string {
	if down[from] {
		return from
	}
	return to
}

// connRng derives a per-connection RNG so chunk-level fault patterns are
// independent of cross-connection goroutine interleaving.
func (c *Chaos) connRng(local, remote string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(local))
	h.Write([]byte{'|'})
	h.Write([]byte(remote))
	c.mu.Lock()
	c.connSeq++
	seq := c.connSeq
	c.mu.Unlock()
	return rand.New(rand.NewSource(c.seed ^ int64(h.Sum64()) ^ (seq << 20)))
}

// chunkFaults draws one chunk's extra delay and whether the connection is
// severed, for traffic from→to using the connection's derived RNG.
func (c *Chaos) chunkFaults(rng *rand.Rand, from, to string) (extra time.Duration, sever bool) {
	if from == to {
		return 0, false
	}
	m := c.net.metrics()
	var losses, jitters bool
	c.mu.Lock()
	f := c.defaults
	if f.BreakProb > 0 && rng.Float64() < f.BreakProb {
		c.logLocked("break %s->%s", from, to)
		c.mu.Unlock()
		if m != nil {
			m.chaosBreaks.Inc()
		}
		return 0, true
	}
	if f.LossProb > 0 && rng.Float64() < f.LossProb {
		d := f.RetransDelay
		if d <= 0 {
			d = defaultRetransDelay
		}
		extra += d
		losses = true
		c.logLocked("loss %s->%s extra=%d", from, to, int64(d))
	}
	if f.JitterMax > 0 {
		j := time.Duration(rng.Int63n(int64(f.JitterMax)))
		extra += j
		jitters = true
		c.logLocked("jitter %s->%s extra=%d", from, to, int64(j))
	}
	c.mu.Unlock()
	if m != nil {
		if losses {
			m.chaosLosses.Inc()
		}
		if jitters {
			m.chaosJitters.Inc()
		}
	}
	return extra, false
}

// blocked reports whether delivery from→to must stall right now.
func (c *Chaos) blocked(from, to string) bool {
	if from == to {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partitioned[[2]string{from, to}]
}

// EnableEventLog starts recording every chaos decision (fault draws,
// partitions, stalls, heals, crashes) with its virtual timestamp. Used
// by the determinism regression test: on the event core the same seed
// and a deterministic workload must reproduce the log byte-for-byte.
func (c *Chaos) EnableEventLog() {
	c.mu.Lock()
	c.logEnabled = true
	c.mu.Unlock()
}

// EventLog returns a copy of the recorded chaos event log.
func (c *Chaos) EventLog() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.eventLog...)
}

func (c *Chaos) logLocked(format string, args ...any) {
	if !c.logEnabled {
		return
	}
	line := fmt.Sprintf("t=%d ", c.net.clock.Now().Nanoseconds()) + fmt.Sprintf(format, args...)
	c.eventLog = append(c.eventLog, line)
}
