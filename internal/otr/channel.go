package otr

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"github.com/bento-nfv/bento/internal/wire"
)

// maxChannelMsg bounds a single secure-channel message.
const maxChannelMsg = 16 << 20

// Channel is an authenticated, encrypted message channel over an arbitrary
// net.Conn. The server side authenticates with a static X25519 key (for
// conclaves, the enclave key bound by the attestation quote); the client is
// anonymous, matching how Bento clients talk to attested containers.
type Channel struct {
	conn             net.Conn
	send, recv       cipher.AEAD
	sendSalt         [12]byte
	recvSalt         [12]byte
	sendSeq, recvSeq uint64
}

// ErrChannelAuth is returned when the peer fails key confirmation.
var ErrChannelAuth = errors.New("otr: channel authentication failed")

// DialChannel runs the client side of the channel handshake. serverPub is
// the server's static X25519 public key the client expects (e.g. extracted
// from a verified attestation quote).
func DialChannel(conn net.Conn, serverPub []byte) (*Channel, error) {
	id := sha256.Sum256(serverPub)
	hs, msg, err := NewClientHandshake(id[:], serverPub)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(msg); err != nil {
		return nil, fmt.Errorf("otr: channel hello: %w", err)
	}
	reply := make([]byte, PublicKeyLen+AuthLen)
	if _, err := io.ReadFull(conn, reply); err != nil {
		return nil, fmt.Errorf("otr: channel reply: %w", err)
	}
	keys, err := hs.Finish(reply)
	if err != nil {
		return nil, ErrChannelAuth
	}
	return newChannel(conn, keys, true)
}

// AcceptChannel runs the server side of the channel handshake using the
// server's static onion (X25519) key.
func AcceptChannel(conn net.Conn, static *OnionKey) (*Channel, error) {
	hello := make([]byte, PublicKeyLen)
	if _, err := io.ReadFull(conn, hello); err != nil {
		return nil, fmt.Errorf("otr: channel hello: %w", err)
	}
	id := sha256.Sum256(static.Public())
	reply, keys, err := ServerHandshake(id[:], static, hello)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(reply); err != nil {
		return nil, fmt.Errorf("otr: channel reply: %w", err)
	}
	return newChannel(conn, keys, false)
}

func newChannel(conn net.Conn, keys []byte, isClient bool) (*Channel, error) {
	mk := func(key []byte) (cipher.AEAD, error) {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	c2s, err := mk(keys[0:16])
	if err != nil {
		return nil, err
	}
	s2c, err := mk(keys[16:32])
	if err != nil {
		return nil, err
	}
	ch := &Channel{conn: conn}
	if isClient {
		ch.send, ch.recv = c2s, s2c
		copy(ch.sendSalt[:], keys[32:44])
		copy(ch.recvSalt[:], keys[64:76])
	} else {
		ch.send, ch.recv = s2c, c2s
		copy(ch.sendSalt[:], keys[64:76])
		copy(ch.recvSalt[:], keys[32:44])
	}
	return ch, nil
}

func nonceFor(salt [12]byte, seq uint64) []byte {
	n := make([]byte, 12)
	copy(n, salt[:])
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	for i := 0; i < 8; i++ {
		n[4+i] ^= s[i]
	}
	return n
}

// Send encrypts and writes one message.
func (ch *Channel) Send(msg []byte) error {
	if len(msg) > maxChannelMsg {
		return fmt.Errorf("otr: message too large (%d bytes)", len(msg))
	}
	ct := ch.send.Seal(nil, nonceFor(ch.sendSalt, ch.sendSeq), msg, nil)
	ch.sendSeq++
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(ct)))
	if _, err := ch.conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := ch.conn.Write(ct)
	return err
}

// Recv reads and decrypts one message.
func (ch *Channel) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(ch.conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxChannelMsg+64 {
		return nil, fmt.Errorf("otr: oversized channel frame (%d bytes)", n)
	}
	ct, err := wire.ReadGrowing(ch.conn, nil, int(n))
	if err != nil {
		return nil, err
	}
	pt, err := ch.recv.Open(nil, nonceFor(ch.recvSalt, ch.recvSeq), ct, nil)
	if err != nil {
		return nil, fmt.Errorf("otr: channel decrypt: %w", err)
	}
	ch.recvSeq++
	return pt, nil
}

// Close closes the underlying connection.
func (ch *Channel) Close() error { return ch.conn.Close() }
