package otr

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/otr/x25519"
)

// ecdhOracle is crypto/ecdh's X25519(scalar, point), the reference the
// handshake's own arithmetic is held to.
func ecdhOracle(scalar, point []byte) ([]byte, error) {
	priv, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		return nil, err
	}
	pub, err := ecdh.X25519().NewPublicKey(point)
	if err != nil {
		return nil, err
	}
	return priv.ECDH(pub)
}

func resetOnionTables() {
	onionTables.Lock()
	onionTables.m = make(map[[32]byte]onionEntry)
	onionTables.Unlock()
}

func TestOnionKeyMatchesOracle(t *testing.T) {
	k, err := NewOnionKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ecdh.X25519().NewPrivateKey(k.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.Public(), priv.PublicKey().Bytes()) {
		t.Fatal("onion public key differs from crypto/ecdh's")
	}
	k2, err := OnionKeyFromBytes(k.Bytes())
	if err != nil || !bytes.Equal(k2.Public(), k.Public()) {
		t.Fatalf("OnionKeyFromBytes round trip: %v", err)
	}
	if _, err := OnionKeyFromBytes(k.Bytes()[:31]); err == nil {
		t.Fatal("31-byte onion private key accepted")
	}
}

// TestNtorRepeatedRelay runs handshakes to one relay until its onion key's
// table is built and used: the client's table path must agree with the
// relay's ladder every time.
func TestNtorRepeatedRelay(t *testing.T) {
	resetOnionTables()
	onion, _ := NewOnionKey()
	id := []byte("repeated-relay")
	for i := 0; i < 4; i++ {
		hs, create, err := NewClientHandshake(id, onion.Public())
		if err != nil {
			t.Fatal(err)
		}
		reply, serverKeys, err := ServerHandshake(id, onion, create)
		if err != nil {
			t.Fatal(err)
		}
		clientKeys, err := hs.Finish(reply)
		if err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
		if !bytes.Equal(clientKeys, serverKeys) {
			t.Fatalf("handshake %d: key material differs", i)
		}
	}
	onionTables.Lock()
	e := onionTables.m[[32]byte(onion.Public())]
	onionTables.Unlock()
	if !e.built || e.table == nil {
		t.Fatal("a relay reached four times has no onion-key table")
	}
}

// TestOnionTablesConcurrent runs handshakes to a few relays from several
// goroutines at once, so the cache is read, filled and evicted in parallel
// (run it under -race).
func TestOnionTablesConcurrent(t *testing.T) {
	resetOnionTables()
	var relays []*OnionKey
	for i := 0; i < onionTableKeys+2; i++ {
		k, err := NewOnionKey()
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, k)
	}
	id := []byte("concurrent-relay")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(relays); i++ {
				onion := relays[(g+i)%len(relays)]
				hs, create, err := NewClientHandshake(id, onion.Public())
				if err != nil {
					t.Error(err)
					return
				}
				reply, serverKeys, err := ServerHandshake(id, onion, create)
				if err != nil {
					t.Error(err)
					return
				}
				clientKeys, err := hs.Finish(reply)
				if err != nil || !bytes.Equal(clientKeys, serverKeys) {
					t.Errorf("goroutine %d handshake %d: keys differ (%v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	onionTables.Lock()
	defer onionTables.Unlock()
	if n := len(onionTables.m); n > onionTableKeys {
		t.Fatalf("cache holds %d keys, want <= %d", n, onionTableKeys)
	}
}

// TestNtorLowOrderRejected: a CREATE or a reply carrying a low-order point,
// and a relay onion key of low order, fail the handshake as crypto/ecdh's
// all-zero check made them fail.
func TestNtorLowOrderRejected(t *testing.T) {
	resetOnionTables()
	onion, _ := NewOnionKey()
	zero := make([]byte, 32)
	if _, _, err := ServerHandshake([]byte("id"), onion, zero); err == nil {
		t.Error("low-order CREATE accepted")
	}
	hs, _, _ := NewClientHandshake([]byte("id"), onion.Public())
	if _, err := hs.Finish(append(zero, make([]byte, AuthLen)...)); err == nil {
		t.Error("low-order reply accepted")
	}
	for i := 0; i < 3; i++ { // the third time the cache has decided on B
		hs, create, _ := NewClientHandshake([]byte("id"), zero)
		reply, _, err := ServerHandshake([]byte("id"), onion, create)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hs.Finish(reply); err == nil {
			t.Errorf("attempt %d: handshake to a low-order onion key accepted", i)
		}
	}
}

// TestKeyTableCacheBounded: however many onion keys a client meets, the
// cache keeps at most onionTableKeys of them, in at most 128 KiB.
func TestKeyTableCacheBounded(t *testing.T) {
	resetOnionTables()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x := [32]byte{1}
	for i := 0; i < 1000; i++ {
		k, err := NewOnionKey()
		if err != nil {
			t.Fatal(err)
		}
		// The second sighting builds the table, the third uses it.
		for j := 0; j < 3; j++ {
			if _, err := expOnion(&x, &k.pub); err != nil {
				t.Fatal(err)
			}
		}
	}
	onionTables.Lock()
	keys, tables := len(onionTables.m), 0
	for _, e := range onionTables.m {
		if e.table != nil {
			tables++
		}
	}
	onionTables.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if keys > onionTableKeys || tables > 16 {
		t.Fatalf("cache holds %d keys and %d tables, want <= %d and <= 16", keys, tables, onionTableKeys)
	}
	if tables == 0 {
		t.Fatal("no tables were built")
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 128<<10 {
		t.Fatalf("live heap grew by %d bytes with %d tables cached, want <= 128 KiB", grew, tables)
	}
}

// FuzzNtorMessages feeds arbitrary CREATE payloads to ServerHandshake and
// arbitrary replies, for arbitrary relay onion keys, to Finish. Every call
// must return (never panic), the relay must fail exactly the CREATEs that
// crypto/ecdh finds low-order, and the client must accept exactly the
// replies whose AUTH is the one the oracle derives.
func FuzzNtorMessages(f *testing.F) {
	onion, err := OnionKeyFromBytes(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		f.Fatal(err)
	}
	id := []byte("fuzz-relay")
	client := func(b []byte) *ClientHandshake {
		hs := &ClientHandshake{relayID: id, relayOnion: [32]byte(b), eph: [32]byte{1, 2, 3}}
		hs.ephPub = x25519.ScalarBaseMult(&hs.eph)
		return hs
	}
	good := client(onion.Public())
	reply, _, err := ServerHandshake(id, onion, good.ephPub[:])
	if err != nil {
		f.Fatal(err)
	}
	zero := make([]byte, 32)
	f.Add(good.ephPub[:], reply, onion.Public())
	f.Add([]byte("short"), []byte("short"), []byte{})
	f.Add(zero, append(zero, zero...), zero)
	f.Fuzz(func(t *testing.T, create, reply, b []byte) {
		sreply, skeys, err := ServerHandshake(id, onion, create)
		if len(create) != PublicKeyLen {
			if err == nil {
				t.Fatalf("CREATE of %d bytes accepted", len(create))
			}
		} else {
			_, oerr := ecdhOracle(onion.Bytes(), create)
			if (err != nil) != (oerr != nil) {
				t.Fatalf("ServerHandshake(%x) error %v, oracle %v", create, err, oerr)
			}
			if err == nil && (len(sreply) != PublicKeyLen+AuthLen || len(skeys) != KeyMaterialLen) {
				t.Fatalf("reply of %d bytes, keys of %d", len(sreply), len(skeys))
			}
		}

		if len(b) != PublicKeyLen {
			b = onion.Public()
		}
		hs := client(b)
		_, err = hs.Finish(reply)
		want := false
		if len(reply) == PublicKeyLen+AuthLen {
			xy, err1 := ecdhOracle(hs.eph[:], reply[:PublicKeyLen])
			xb, err2 := ecdhOracle(hs.eph[:], b)
			if err1 == nil && err2 == nil {
				secret := secretInput(xy, xb, id, b, hs.ephPub[:], reply[:PublicKeyLen])
				want = hmac.Equal(reply[PublicKeyLen:], authenticator(secret))
			}
		}
		if got := err == nil; got != want {
			t.Fatalf("Finish accepted=%v (err %v), oracle says %v", got, err, want)
		}
	})
}

// TestChannelAnnouncedLengthNotAllocated: a peer that announces the largest
// frame and then stalls after 1000 bytes must not make Recv allocate the
// announced length.
func TestChannelAnnouncedLengthNotAllocated(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	ch, err := newChannel(sc, make([]byte, KeyMaterialLen), false)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() {
		_, err := ch.Recv()
		done <- err
	}()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxChannelMsg+64)
	if _, err := cc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// net.Pipe's Write returns once the reader has taken every byte.
	if _, err := cc.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Recv allocated %d bytes for 1000 received", grew)
	}
	cc.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv of a cut-off frame succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv did not return after the peer closed")
	}
}
