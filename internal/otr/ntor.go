package otr

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"github.com/bento-nfv/bento/internal/otr/x25519"
)

const (
	protoID = "bento-ntor-x25519-sha256-1"

	// KeyMaterialLen is the number of bytes of shared key material each
	// side derives: forward key, backward key, forward digest seed,
	// backward digest seed.
	KeyMaterialLen = 16 + 16 + 32 + 32

	// PublicKeyLen is the length of an X25519 public key.
	PublicKeyLen = 32
	// AuthLen is the length of the server's handshake authenticator.
	AuthLen = 32
)

var errHandshake = errors.New("otr: handshake authentication failed")

// OnionKey is a relay's long-lived X25519 onion key pair.
type OnionKey struct {
	priv, pub [32]byte
}

// NewOnionKey generates a fresh onion key pair.
func NewOnionKey() (*OnionKey, error) {
	var priv [32]byte
	if _, err := rand.Read(priv[:]); err != nil {
		return nil, fmt.Errorf("otr: generating onion key: %w", err)
	}
	return &OnionKey{priv: priv, pub: x25519.ScalarBaseMult(&priv)}, nil
}

// Public returns the 32-byte public onion key.
func (k *OnionKey) Public() []byte { return append([]byte(nil), k.pub[:]...) }

// Bytes returns the private key material for serialization (e.g. when a
// hidden service identity is replicated to another node).
func (k *OnionKey) Bytes() []byte { return append([]byte(nil), k.priv[:]...) }

// OnionKeyFromBytes reconstructs an onion key pair from Bytes output.
func OnionKeyFromBytes(b []byte) (*OnionKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("otr: bad onion private key: length %d", len(b))
	}
	priv := [32]byte(b)
	return &OnionKey{priv: priv, pub: x25519.ScalarBaseMult(&priv)}, nil
}

// ClientHandshake holds the client side of an in-progress ntor handshake.
type ClientHandshake struct {
	relayID     []byte   // relay identity fingerprint
	relayOnion  [32]byte // relay public onion key B
	eph, ephPub [32]byte
}

// NewClientHandshake begins a handshake toward a relay identified by
// relayID whose public onion key is relayOnion. The returned message is the
// client's CREATE payload (the ephemeral public key X).
func NewClientHandshake(relayID, relayOnion []byte) (*ClientHandshake, []byte, error) {
	if len(relayOnion) != PublicKeyLen {
		return nil, nil, fmt.Errorf("otr: bad onion key length %d", len(relayOnion))
	}
	hs := &ClientHandshake{
		relayID:    append([]byte(nil), relayID...),
		relayOnion: [32]byte(relayOnion),
	}
	if _, err := rand.Read(hs.eph[:]); err != nil {
		return nil, nil, fmt.Errorf("otr: generating ephemeral key: %w", err)
	}
	hs.ephPub = x25519.ScalarBaseMult(&hs.eph)
	return hs, append([]byte(nil), hs.ephPub[:]...), nil
}

// ServerHandshake processes a client CREATE payload on the relay side,
// producing the CREATED reply (Y || AUTH) and the shared key material.
func ServerHandshake(relayID []byte, onion *OnionKey, clientMsg []byte) (reply []byte, keys []byte, err error) {
	if len(clientMsg) != PublicKeyLen {
		return nil, nil, fmt.Errorf("otr: bad handshake message length %d", len(clientMsg))
	}
	clientPub := [32]byte(clientMsg)
	var eph [32]byte
	if _, err := rand.Read(eph[:]); err != nil {
		return nil, nil, fmt.Errorf("otr: generating ephemeral key: %w", err)
	}
	ephPub := x25519.ScalarBaseMult(&eph)
	xy, err := x25519.ScalarMult(&eph, &clientPub) // EXP(X, y)
	if err != nil {
		return nil, nil, fmt.Errorf("otr: ECDH: %w", err)
	}
	xb, err := x25519.ScalarMult(&onion.priv, &clientPub) // EXP(X, b)
	if err != nil {
		return nil, nil, fmt.Errorf("otr: ECDH: %w", err)
	}
	secret := secretInput(xy[:], xb[:], relayID, onion.pub[:], clientMsg, ephPub[:])
	keys = HKDF(secret, []byte(protoID+":key"), []byte("expand"), KeyMaterialLen)
	reply = append(append(make([]byte, 0, PublicKeyLen+AuthLen), ephPub[:]...), authenticator(secret)...)
	return reply, keys, nil
}

// Finish processes the relay's CREATED reply on the client side, verifying
// the authenticator and returning the shared key material.
func (hs *ClientHandshake) Finish(reply []byte) ([]byte, error) {
	if len(reply) != PublicKeyLen+AuthLen {
		return nil, fmt.Errorf("otr: bad handshake reply length %d", len(reply))
	}
	serverEph, authGot := [32]byte(reply[:PublicKeyLen]), reply[PublicKeyLen:]
	xy, err := x25519.ScalarMult(&hs.eph, &serverEph) // EXP(Y, x)
	if err != nil {
		return nil, fmt.Errorf("otr: ECDH: %w", err)
	}
	xb, err := expOnion(&hs.eph, &hs.relayOnion) // EXP(B, x)
	if err != nil {
		return nil, fmt.Errorf("otr: ECDH: %w", err)
	}
	secret := secretInput(xy[:], xb[:], hs.relayID, hs.relayOnion[:], hs.ephPub[:], serverEph[:])
	if !hmac.Equal(authGot, authenticator(secret)) {
		return nil, errHandshake
	}
	return HKDF(secret, []byte(protoID+":key"), []byte("expand"), KeyMaterialLen), nil
}

// onionTableKeys bounds the onion-key comb cache: at most this many keys,
// whose tables take under 8 KiB each.
const onionTableKeys = 16

// onionTables caches an x25519.Table per relay onion key B for the client's
// EXP(B, x): a multiply with the table costs about half a ladder. Building
// one costs more than a ladder, so a key's first handshake uses the ladder
// and only records the key; its second builds the table. A key seen once
// never costs more than the ladder; a key built and then evicted before it
// has been used a few times costs more. When the cache is full an arbitrary
// entry makes room. The bound and the second-sighting rule are measured
// only on paths over at most 16 relays (DESIGN.md §13.2).
var onionTables = onionCache{m: make(map[[32]byte]onionEntry)}

type onionCache struct {
	sync.Mutex
	m map[[32]byte]onionEntry
}

type onionEntry struct {
	built bool
	table *x25519.Table // nil until built, and for a B off the curve
}

// expOnion returns EXP(B, x), with B's cached table when there is one.
func expOnion(x, b *[32]byte) ([32]byte, error) {
	if t := onionTables.lookup(b); t != nil {
		return t.ScalarMult(x)
	}
	return x25519.ScalarMult(x, b)
}

// lookup returns B's table, building it on B's second sighting; nil means
// use the ladder.
func (c *onionCache) lookup(b *[32]byte) *x25519.Table {
	c.Lock()
	e, seen := c.m[*b]
	if !seen {
		c.put(b, onionEntry{})
	}
	c.Unlock()
	if !seen || e.built {
		return e.table
	}
	t := x25519.NewTable(b) // outside the lock: a concurrent duplicate is harmless
	c.Lock()
	c.put(b, onionEntry{built: true, table: t})
	c.Unlock()
	return t
}

// put stores e for B, evicting an arbitrary other key if the cache is full.
// The caller holds the lock.
func (c *onionCache) put(b *[32]byte, e onionEntry) {
	if _, ok := c.m[*b]; !ok && len(c.m) >= onionTableKeys {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[*b] = e
}

func secretInput(xy, xb, id, b, x, y []byte) []byte {
	h := sha256.New()
	for _, part := range [][]byte{xy, xb, id, b, x, y, []byte(protoID)} {
		h.Write(part)
	}
	return h.Sum(nil)
}

func authenticator(secret []byte) []byte {
	m := hmac.New(sha256.New, secret)
	m.Write([]byte(protoID + ":auth"))
	return m.Sum(nil)
}
