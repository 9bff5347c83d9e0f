package otr

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"

	"github.com/bento-nfv/bento/internal/otr/x25519"
)

// SealTo encrypts plaintext to the holder of the X25519 key pub as an
// anonymous sealed box: ephemeral-key ECDH, HKDF, AES-GCM. Bento clients
// use this to upload function code readable only inside an attested
// enclave ("function uploads could also be encrypted and only decrypted
// within the enclave", §6.3).
func SealTo(pub []byte, plaintext []byte) ([]byte, error) {
	if len(pub) != PublicKeyLen {
		return nil, fmt.Errorf("otr: bad recipient key length %d", len(pub))
	}
	recipient := [32]byte(pub)
	var eph [32]byte
	if _, err := rand.Read(eph[:]); err != nil {
		return nil, err
	}
	ephPub := x25519.ScalarBaseMult(&eph)
	shared, err := x25519.ScalarMult(&eph, &recipient)
	if err != nil {
		return nil, err
	}
	aead, nonce, err := sealedBoxAEAD(shared[:], ephPub[:], pub)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), ephPub[:]...)
	return aead.Seal(out, nonce, plaintext, nil), nil
}

// OpenSealed decrypts a sealed box with the recipient's private key.
func OpenSealed(key *OnionKey, box []byte) ([]byte, error) {
	if len(box) < PublicKeyLen {
		return nil, fmt.Errorf("otr: sealed box too short")
	}
	ephPub := [32]byte(box[:PublicKeyLen])
	shared, err := x25519.ScalarMult(&key.priv, &ephPub)
	if err != nil {
		return nil, err
	}
	aead, nonce, err := sealedBoxAEAD(shared[:], ephPub[:], key.pub[:])
	if err != nil {
		return nil, err
	}
	pt, err := aead.Open(nil, nonce, box[PublicKeyLen:], nil)
	if err != nil {
		return nil, fmt.Errorf("otr: opening sealed box: %w", err)
	}
	return pt, nil
}

func sealedBoxAEAD(shared, ephPub, recipientPub []byte) (cipher.AEAD, []byte, error) {
	info := append(append([]byte("bento-sealed-box:"), ephPub...), recipientPub...)
	material := HKDF(shared, nil, info, 16+12)
	block, err := aes.NewCipher(material[:16])
	if err != nil {
		return nil, nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	return aead, material[16:], nil
}
