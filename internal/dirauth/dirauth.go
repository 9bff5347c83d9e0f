// Package dirauth implements the directory authority of the emulated Tor
// overlay. Relays publish self-signed descriptors (identity key, onion key,
// flags, exit policy, and — for Bento nodes — the middlebox node policy and
// Bento server address); clients fetch a signed consensus and select
// circuit paths from it.
//
// Disseminating middlebox node policies through the directory follows
// §5.5 of the paper ("we envision that middlebox node policies could be
// disseminated as part of the Tor directory, as with exit node policies").
package dirauth

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/bento-nfv/bento/internal/policy"
)

// Relay flags published in descriptors.
const (
	FlagGuard = "Guard"
	FlagExit  = "Exit"
	FlagHSDir = "HSDir"
	FlagBento = "Bento"
	// FlagFast marks high-bandwidth relays; path selection prefers them
	// for intermediate hops, approximating Tor's bandwidth weighting.
	FlagFast = "Fast"
)

// Descriptor describes one relay.
type Descriptor struct {
	Nickname   string             `json:"nickname"`
	Address    string             `json:"address"`   // OR listener, "host:port"
	Identity   []byte             `json:"identity"`  // ed25519 public key
	OnionKey   []byte             `json:"onion_key"` // X25519 public key
	Flags      []string           `json:"flags"`
	ExitPolicy *policy.ExitPolicy `json:"exit_policy,omitempty"`

	// Family groups relays under one operator, as Tor's family lines do.
	// Path selection and fleet placement treat same-family relays as one
	// fault domain. Empty means the relay declared no family; Family()
	// then falls back to the nickname (every relay its own family).
	FamilyID string `json:"family,omitempty"`

	// Bento middlebox fields (present when FlagBento is set).
	Middlebox *policy.Middlebox `json:"middlebox,omitempty"`
	BentoAddr string            `json:"bento_addr,omitempty"`

	Signature []byte `json:"signature,omitempty"`
}

// Fingerprint returns the relay's identity fingerprint (hex of the hashed
// identity key), used as the relay ID in handshakes.
func (d *Descriptor) Fingerprint() string {
	sum := sha256.Sum256(d.Identity)
	return hex.EncodeToString(sum[:8])
}

// Family returns the relay's fault-domain label: the declared family,
// or the nickname when none was declared.
func (d *Descriptor) Family() string {
	if d.FamilyID != "" {
		return d.FamilyID
	}
	return d.Nickname
}

// HasFlag reports whether the descriptor carries the given flag.
func (d *Descriptor) HasFlag(flag string) bool {
	for _, f := range d.Flags {
		if f == flag {
			return true
		}
	}
	return false
}

// signingBytes returns the canonical bytes covered by the descriptor
// signature.
func (d *Descriptor) signingBytes() ([]byte, error) {
	c := *d
	c.Signature = nil
	return json.Marshal(&c)
}

// Sign signs the descriptor with the relay's identity private key.
func (d *Descriptor) Sign(priv ed25519.PrivateKey) error {
	b, err := d.signingBytes()
	if err != nil {
		return err
	}
	d.Signature = ed25519.Sign(priv, b)
	return nil
}

// Verify checks the descriptor's self-signature.
func (d *Descriptor) Verify() error {
	if len(d.Identity) != ed25519.PublicKeySize {
		return fmt.Errorf("dirauth: bad identity key length %d", len(d.Identity))
	}
	b, err := d.signingBytes()
	if err != nil {
		return err
	}
	if !ed25519.Verify(ed25519.PublicKey(d.Identity), b, d.Signature) {
		return fmt.Errorf("dirauth: descriptor signature invalid for %q", d.Nickname)
	}
	return nil
}

// Consensus is the authority-signed set of descriptors.
type Consensus struct {
	Relays    []*Descriptor `json:"relays"`
	Signature []byte        `json:"signature,omitempty"`
}

func (c *Consensus) signingBytes() ([]byte, error) {
	cc := Consensus{Relays: c.Relays}
	return json.Marshal(&cc)
}

// Verify checks the authority signature on the consensus.
func (c *Consensus) Verify(authority ed25519.PublicKey) error {
	b, err := c.signingBytes()
	if err != nil {
		return err
	}
	if !ed25519.Verify(authority, b, c.Signature) {
		return fmt.Errorf("dirauth: consensus signature invalid")
	}
	return nil
}

// Relay returns the descriptor with the given nickname, or nil.
func (c *Consensus) Relay(nickname string) *Descriptor {
	for _, d := range c.Relays {
		if d.Nickname == nickname {
			return d
		}
	}
	return nil
}

// WithFlag returns all relays carrying the given flag, in stable
// (nickname-sorted) order.
func (c *Consensus) WithFlag(flag string) []*Descriptor {
	var out []*Descriptor
	for _, d := range c.Relays {
		if d.HasFlag(flag) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nickname < out[j].Nickname })
	return out
}

// BentoNodes returns all relays advertising a Bento server, optionally
// filtered to those whose middlebox policy permits every call in calls.
func (c *Consensus) BentoNodes(calls ...string) []*Descriptor {
	var out []*Descriptor
	for _, d := range c.WithFlag(FlagBento) {
		if d.Middlebox == nil {
			continue
		}
		ok := true
		for _, call := range calls {
			if !d.Middlebox.AllowsCall(call) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// Families returns the set of family labels present in the consensus,
// in sorted order — the fault domains a placement allocator can spread
// replicas across.
func (c *Consensus) Families() []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range c.Relays {
		fam := d.Family()
		if !seen[fam] {
			seen[fam] = true
			out = append(out, fam)
		}
	}
	sort.Strings(out)
	return out
}

// Exclude returns a view of the consensus without the relays whose
// fingerprints appear in skip. The view shares descriptors with the
// original and carries no signature — it is for local path selection
// (e.g. routing around recently-failed relays), not redistribution.
func (c *Consensus) Exclude(skip map[string]bool) *Consensus {
	if len(skip) == 0 {
		return c
	}
	out := &Consensus{Relays: make([]*Descriptor, 0, len(c.Relays))}
	for _, d := range c.Relays {
		if !skip[d.Fingerprint()] {
			out.Relays = append(out.Relays, d)
		}
	}
	return out
}

// PickPath selects a guard, middle, and exit for a 3-hop circuit toward
// destHost:destPort, using rng for reproducible experiments. The three
// relays are distinct. Exit selection honors exit policies.
func (c *Consensus) PickPath(rng *rand.Rand, destHost string, destPort int) ([]*Descriptor, error) {
	exits := c.exitsFor(destHost, destPort)
	if len(exits) == 0 {
		return nil, fmt.Errorf("dirauth: no exit permits %s:%d", destHost, destPort)
	}
	exit := exits[rng.Intn(len(exits))]

	gpool := preferFast(c.WithFlag(FlagGuard), exit.Nickname)
	if len(gpool) == 0 {
		return nil, fmt.Errorf("dirauth: no guard available")
	}
	guard := gpool[rng.Intn(len(gpool))]

	mpool := preferFast(c.Relays, exit.Nickname, guard.Nickname)
	if len(mpool) == 0 {
		return nil, fmt.Errorf("dirauth: no middle relay available")
	}
	sort.Slice(mpool, func(i, j int) bool { return mpool[i].Nickname < mpool[j].Nickname })
	middle := mpool[rng.Intn(len(mpool))]

	return []*Descriptor{guard, middle, exit}, nil
}

// preferFast filters out excluded nicknames, then narrows to Fast relays
// when any remain — Tor's bandwidth weighting, coarsely.
func preferFast(pool []*Descriptor, exclude ...string) []*Descriptor {
	var all, fast []*Descriptor
	for _, d := range pool {
		skip := false
		for _, x := range exclude {
			if d.Nickname == x {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		all = append(all, d)
		if d.HasFlag(FlagFast) {
			fast = append(fast, d)
		}
	}
	if len(fast) > 0 {
		return fast
	}
	return all
}

// PreferFast exposes the fast-preferring filter for other path builders.
func PreferFast(pool []*Descriptor, exclude ...string) []*Descriptor {
	return preferFast(pool, exclude...)
}

func (c *Consensus) exitsFor(host string, port int) []*Descriptor {
	var out []*Descriptor
	for _, d := range c.WithFlag(FlagExit) {
		if d.ExitPolicy.Allows(host, port) {
			out = append(out, d)
		}
	}
	return out
}

// Authority collects descriptors and signs consensuses. It is used both
// in-process (tests, experiment harnesses) and behind the Server in
// cmd/torsim.
type Authority struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey

	mu     sync.Mutex
	relays map[string]*Descriptor
}

// NewAuthority creates an authority with a fresh signing key.
func NewAuthority() (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	return &Authority{priv: priv, pub: pub, relays: make(map[string]*Descriptor)}, nil
}

// PublicKey returns the authority's consensus-signing key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.pub }

// Publish validates and stores a relay descriptor. Re-publishing under the
// same nickname replaces the previous descriptor (as in Tor, descriptors
// are refreshed).
func (a *Authority) Publish(d *Descriptor) error {
	if d == nil {
		return fmt.Errorf("dirauth: publish without a descriptor")
	}
	if err := d.Verify(); err != nil {
		return err
	}
	if d.HasFlag(FlagBento) && d.Middlebox == nil {
		return fmt.Errorf("dirauth: Bento relay %q missing middlebox policy", d.Nickname)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.relays[d.Nickname] = d
	return nil
}

// Remove drops a relay from the authority's descriptor set, so the next
// consensus no longer lists it — how a decommissioned or long-dead relay
// leaves the directory. Removing an unknown nickname is a no-op.
func (a *Authority) Remove(nickname string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.relays, nickname)
}

// Consensus produces a freshly signed consensus over the current relays.
func (a *Authority) Consensus() (*Consensus, error) {
	a.mu.Lock()
	relays := make([]*Descriptor, 0, len(a.relays))
	for _, d := range a.relays {
		relays = append(relays, d)
	}
	a.mu.Unlock()
	sort.Slice(relays, func(i, j int) bool { return relays[i].Nickname < relays[j].Nickname })
	c := &Consensus{Relays: relays}
	b, err := c.signingBytes()
	if err != nil {
		return nil, err
	}
	c.Signature = ed25519.Sign(a.priv, b)
	return c, nil
}
