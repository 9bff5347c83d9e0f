// Circuit self-healing. The paper's premise is that Bento needs no Tor
// modifications because failures are absorbed above the Tor layer: when a
// relay dies or a circuit stalls, the client notices (DESTROY, severed
// guard link, or a control-cell timeout), remembers which relays were on
// the dead circuit, and rebuilds along a path that avoids them. Avoidance
// is soft — when the consensus is too small to route around the suspects,
// the client falls back to the full relay set rather than failing.
package torclient

import (
	"fmt"
	"net"
	"sort"
	"time"

	"github.com/bento-nfv/bento/internal/dirauth"
)

// DefaultCtrlTimeout is the default virtual-time bound on circuit-level
// control waits (EXTENDED, CONNECTED, rendezvous responses). Emulated
// round trips complete in virtual milliseconds, so this only fires on
// genuinely stalled circuits (e.g. a partitioned link).
const DefaultCtrlTimeout = 10 * time.Minute

// badRelayTTL is how long (virtual) a relay stays on the avoid list after
// being implicated in a circuit failure. Relays recover: a transient
// partition or restart should not blacklist a node forever.
const badRelayTTL = 30 * time.Minute

// healBackoffBase paces rebuild attempts (virtual, doubled per retry).
const healBackoffBase = 100 * time.Millisecond

// MarkRelayBad records a relay as recently failed; path selection avoids
// it until the entry expires.
func (c *Client) MarkRelayBad(fingerprint string) {
	if fingerprint == "" {
		return
	}
	c.m.relaysMarked.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad[fingerprint] = c.host.Clock().Now() + badRelayTTL
}

// RelayBad reports whether a relay is currently on the avoid list.
func (c *Client) RelayBad(fingerprint string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.badLocked(fingerprint)
}

func (c *Client) badLocked(fingerprint string) bool {
	exp, ok := c.bad[fingerprint]
	if !ok {
		return false
	}
	if c.host.Clock().Now() >= exp {
		delete(c.bad, fingerprint)
		return false
	}
	return true
}

// badSetLocked prunes expired entries and returns the live avoid set.
func (c *Client) badSetLocked() map[string]bool {
	now := c.host.Clock().Now()
	set := make(map[string]bool, len(c.bad))
	for fp, exp := range c.bad {
		if now >= exp {
			delete(c.bad, fp)
			continue
		}
		set[fp] = true
	}
	return set
}

// noteCircuitFailure marks every hop of an abnormally-dead circuit as
// suspect. The client cannot tell which hop failed from a severed guard
// link alone, so all hops are avoided briefly; innocent relays age off
// via badRelayTTL.
func (c *Client) noteCircuitFailure(circ *Circuit) {
	for _, d := range circ.Path() {
		c.MarkRelayBad(d.Fingerprint())
	}
}

// FilterHealthy removes relays on the avoid list from pool. When
// avoidance would leave the pool empty, it returns the least-suspect
// relays instead — the ones whose marks expire soonest. A relay that is
// actually down keeps re-marking itself on every failed attempt, pushing
// its expiry ever later, so it stays at the bottom of the preference
// order while innocent bystanders of an old failure age back in first.
func (c *Client) FilterHealthy(pool []*dirauth.Descriptor) []*dirauth.Descriptor {
	c.mu.Lock()
	defer c.mu.Unlock()
	healthy := make([]*dirauth.Descriptor, 0, len(pool))
	for _, d := range pool {
		if !c.badLocked(d.Fingerprint()) {
			healthy = append(healthy, d)
		}
	}
	if len(healthy) == 0 {
		return c.leastSuspectLocked(pool)
	}
	return healthy
}

// leastSuspectLocked orders pool by avoid-list expiry (relays implicated
// longest ago first) and drops the most recently implicated half, keeping
// at least two so a 3-hop path remains possible.
func (c *Client) leastSuspectLocked(pool []*dirauth.Descriptor) []*dirauth.Descriptor {
	sorted := make([]*dirauth.Descriptor, len(pool))
	copy(sorted, pool)
	sort.SliceStable(sorted, func(i, j int) bool {
		ei, ej := c.bad[sorted[i].Fingerprint()], c.bad[sorted[j].Fingerprint()]
		if ei != ej {
			return ei < ej
		}
		return sorted[i].Fingerprint() < sorted[j].Fingerprint()
	})
	keep := len(sorted) - len(sorted)/2
	if keep < 2 {
		keep = len(sorted)
	}
	return sorted[:keep]
}

// PickHealthyPath chooses a 3-hop path toward dest avoiding relays on the
// avoid list, falling back to the full consensus when avoidance leaves no
// viable path.
func (c *Client) PickHealthyPath(destHost string, destPort int) ([]*dirauth.Descriptor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if skip := c.badSetLocked(); len(skip) > 0 {
		if path, err := c.consensus.Exclude(skip).PickPath(c.rng, destHost, destPort); err == nil {
			return path, nil
		}
		// Avoiding every suspect leaves no route. Forgive the relays
		// marked longest ago (likely bystanders of an old failure) but
		// keep avoiding the freshest suspects — a dead relay re-marks
		// itself on every failed attempt and so stays excluded.
		if fresh := c.freshestBadLocked(skip, len(skip)/2); len(fresh) > 0 {
			if path, err := c.consensus.Exclude(fresh).PickPath(c.rng, destHost, destPort); err == nil {
				return path, nil
			}
		}
	}
	return c.consensus.PickPath(c.rng, destHost, destPort)
}

// freshestBadLocked returns the n most recently marked fingerprints from
// the avoid set.
func (c *Client) freshestBadLocked(skip map[string]bool, n int) map[string]bool {
	if n <= 0 {
		return nil
	}
	fps := make([]string, 0, len(skip))
	for fp := range skip {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool {
		if c.bad[fps[i]] != c.bad[fps[j]] {
			return c.bad[fps[i]] > c.bad[fps[j]]
		}
		return fps[i] < fps[j]
	})
	out := make(map[string]bool, n)
	for _, fp := range fps[:n] {
		out[fp] = true
	}
	return out
}

// DialResilient opens a stream to target ("host:port") via a fresh
// circuit toward destHost:destPort, transparently retrying with new paths
// that avoid relays observed failing. Failed attempts feed the avoid
// list, so retries steer around crashed or partitioned relays. attempts
// <= 0 means the default of 4.
func (c *Client) DialResilient(destHost string, destPort int, target string, attempts int) (net.Conn, *Circuit, error) {
	if attempts <= 0 {
		attempts = 4
	}
	clock := c.host.Clock()
	backoff := healBackoffBase
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.m.healRetries.Inc()
			clock.Sleep(backoff)
			backoff *= 2
		}
		path, err := c.PickHealthyPath(destHost, destPort)
		if err != nil {
			return nil, nil, err // consensus-level failure, not retryable
		}
		circ, err := c.BuildCircuit(path)
		if err != nil {
			lastErr = err
			continue
		}
		conn, err := circ.OpenStream(target)
		if err != nil {
			circ.Close()
			lastErr = err
			continue
		}
		return conn, circ, nil
	}
	return nil, nil, fmt.Errorf("torclient: dial %s failed after %d attempts: %w", target, attempts, lastErr)
}
