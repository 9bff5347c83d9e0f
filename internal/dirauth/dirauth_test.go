package dirauth

import (
	"crypto/ed25519"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/wire"
)

// newDesc builds a signed descriptor with the given flags.
func newDesc(t *testing.T, nick string, flags []string, exit *policy.ExitPolicy) (*Descriptor, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &Descriptor{
		Nickname:   nick,
		Address:    nick + ":9001",
		Identity:   pub,
		OnionKey:   make([]byte, 32),
		Flags:      flags,
		ExitPolicy: exit,
	}
	for _, f := range flags {
		if f == FlagBento {
			d.Middlebox = policy.DefaultMiddlebox()
			d.BentoAddr = nick + ":5000"
		}
	}
	if err := d.Sign(priv); err != nil {
		t.Fatal(err)
	}
	return d, priv
}

func TestDescriptorSignVerify(t *testing.T) {
	d, _ := newDesc(t, "r1", []string{FlagGuard}, nil)
	if err := d.Verify(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	d.Address = "evil:9001" // tamper
	if err := d.Verify(); err == nil {
		t.Fatal("tampered descriptor accepted")
	}
}

func TestDescriptorVerifyBadKey(t *testing.T) {
	d, _ := newDesc(t, "r1", nil, nil)
	d.Identity = []byte("short")
	if err := d.Verify(); err == nil {
		t.Fatal("bad identity key length accepted")
	}
}

func TestAuthorityPublishAndConsensus(t *testing.T) {
	a, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := newDesc(t, "guard1", []string{FlagGuard}, nil)
	d2, _ := newDesc(t, "exit1", []string{FlagExit}, policy.AcceptAll())
	for _, d := range []*Descriptor{d1, d2} {
		if err := a.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	c, err := a.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(a.PublicKey()); err != nil {
		t.Fatalf("consensus verify: %v", err)
	}
	if len(c.Relays) != 2 {
		t.Fatalf("consensus has %d relays, want 2", len(c.Relays))
	}
	if c.Relay("guard1") == nil || c.Relay("nonesuch") != nil {
		t.Fatal("Relay lookup broken")
	}

	// Wrong authority key must fail.
	other, _ := NewAuthority()
	if err := c.Verify(other.PublicKey()); err == nil {
		t.Fatal("consensus verified with wrong authority key")
	}
}

func TestAuthorityRejectsTamperedDescriptor(t *testing.T) {
	a, _ := NewAuthority()
	d, _ := newDesc(t, "r1", []string{FlagGuard}, nil)
	d.Flags = append(d.Flags, FlagExit) // tamper post-signing
	if err := a.Publish(d); err == nil {
		t.Fatal("tampered descriptor published")
	}
}

func TestAuthorityRejectsBentoWithoutPolicy(t *testing.T) {
	a, _ := NewAuthority()
	pub, priv, _ := ed25519.GenerateKey(nil)
	d := &Descriptor{
		Nickname: "b1",
		Address:  "b1:9001",
		Identity: pub,
		OnionKey: make([]byte, 32),
		Flags:    []string{FlagBento},
	}
	d.Sign(priv)
	if err := a.Publish(d); err == nil {
		t.Fatal("Bento relay without middlebox policy accepted")
	}
}

func TestRepublishReplaces(t *testing.T) {
	a, _ := NewAuthority()
	d, priv := newDesc(t, "r1", []string{FlagGuard}, nil)
	if err := a.Publish(d); err != nil {
		t.Fatal(err)
	}
	d2 := *d
	d2.Flags = []string{FlagGuard, FlagHSDir}
	d2.Signature = nil
	if err := d2.Sign(priv); err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(&d2); err != nil {
		t.Fatal(err)
	}
	c, _ := a.Consensus()
	if len(c.Relays) != 1 || !c.Relays[0].HasFlag(FlagHSDir) {
		t.Fatal("republish did not replace descriptor")
	}
}

func TestWithFlagAndBentoNodes(t *testing.T) {
	a, _ := NewAuthority()
	dg, _ := newDesc(t, "g", []string{FlagGuard}, nil)
	de, _ := newDesc(t, "e", []string{FlagExit}, policy.AcceptAll())
	db, _ := newDesc(t, "b", []string{FlagExit, FlagBento}, policy.AcceptAll())
	for _, d := range []*Descriptor{dg, de, db} {
		if err := a.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := a.Consensus()
	if got := len(c.WithFlag(FlagExit)); got != 2 {
		t.Fatalf("WithFlag(Exit) = %d, want 2", got)
	}
	if got := len(c.BentoNodes()); got != 1 {
		t.Fatalf("BentoNodes() = %d, want 1", got)
	}
	if got := len(c.BentoNodes("net.dial")); got != 1 {
		t.Fatalf("BentoNodes(net.dial) = %d, want 1", got)
	}
	if got := len(c.BentoNodes("os.exec")); got != 0 {
		t.Fatalf("BentoNodes(os.exec) = %d, want 0", got)
	}
}

func TestPickPath(t *testing.T) {
	a, _ := NewAuthority()
	restricted, _ := policy.ParseExitPolicy("accept web:80", "reject *:*")
	specs := []struct {
		nick  string
		flags []string
		exit  *policy.ExitPolicy
	}{
		{"guard1", []string{FlagGuard}, nil},
		{"guard2", []string{FlagGuard}, nil},
		{"mid1", nil, nil},
		{"exit1", []string{FlagExit}, policy.AcceptAll()},
		{"exit2", []string{FlagExit}, restricted},
	}
	for _, s := range specs {
		d, _ := newDesc(t, s.nick, s.flags, s.exit)
		if err := a.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := a.Consensus()
	rng := rand.New(rand.NewSource(1))

	for i := 0; i < 20; i++ {
		path, err := c.PickPath(rng, "anything", 443)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != 3 {
			t.Fatalf("path length %d", len(path))
		}
		// Distinct relays.
		if path[0].Nickname == path[1].Nickname || path[1].Nickname == path[2].Nickname ||
			path[0].Nickname == path[2].Nickname {
			t.Fatalf("path reuses a relay: %s %s %s",
				path[0].Nickname, path[1].Nickname, path[2].Nickname)
		}
		// Only exit1 permits anything:443.
		if path[2].Nickname != "exit1" {
			t.Fatalf("exit %s does not permit destination", path[2].Nickname)
		}
		if !path[0].HasFlag(FlagGuard) {
			t.Fatalf("entry %s is not a guard", path[0].Nickname)
		}
	}

	// web:80 is reachable through either exit.
	sawExit2 := false
	for i := 0; i < 50; i++ {
		path, err := c.PickPath(rng, "web", 80)
		if err != nil {
			t.Fatal(err)
		}
		if path[2].Nickname == "exit2" {
			sawExit2 = true
		}
	}
	if !sawExit2 {
		t.Fatal("restricted exit never chosen for permitted destination")
	}

	// A consensus whose only exit is restricted cannot reach port 22.
	a2, _ := NewAuthority()
	for _, nick := range []string{"guard1", "guard2", "mid1"} {
		d, _ := newDesc(t, nick, []string{FlagGuard}, nil)
		a2.Publish(d)
	}
	dr, _ := newDesc(t, "exit2", []string{FlagExit}, restricted)
	a2.Publish(dr)
	c2, _ := a2.Consensus()
	if _, err := c2.PickPath(rng, "host", 22); err == nil {
		t.Fatal("path found with no permitting exit")
	}
}

func TestServerOverSimnet(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	dirHost := n.AddHost("dir", 0)
	relayHost := n.AddHost("relay1", 0)
	clientHost := n.AddHost("client", 0)

	auth, _ := NewAuthority()
	srv, err := Serve(dirHost, auth)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d, _ := newDesc(t, "relay1", []string{FlagGuard, FlagExit}, policy.AcceptAll())
	if err := Publish(relayHost, "dir:7000", d); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	c, err := FetchConsensus(clientHost, "dir:7000", auth.PublicKey())
	if err != nil {
		t.Fatalf("FetchConsensus: %v", err)
	}
	if len(c.Relays) != 1 || c.Relays[0].Nickname != "relay1" {
		t.Fatalf("unexpected consensus: %+v", c.Relays)
	}

	// Wrong expected key must fail verification client-side.
	other, _ := NewAuthority()
	if _, err := FetchConsensus(clientHost, "dir:7000", other.PublicKey()); err == nil {
		t.Fatal("consensus accepted under wrong authority key")
	}

	// Publishing garbage must be rejected by the server.
	bad := *d
	bad.Nickname = "tampered"
	if err := Publish(relayHost, "dir:7000", &bad); err == nil {
		t.Fatal("tampered descriptor accepted over the network")
	}

	// A publish that names no descriptor is refused, and the server serves
	// on.
	conn, err := clientHost.Dial("dir:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteJSON(conn, &request{Op: "publish"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := wire.NewFrameDecoder(conn, maxPublishResponse, 0).Decode(&resp); err != nil || resp.OK {
		t.Fatalf("publish without a descriptor answered %+v, %v; want a refusal", resp, err)
	}

	// A request header announcing more than maxRequest gets the
	// connection closed before any of the announced bytes are sent.
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], maxRequest+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized request header answered with %v, want the connection closed", err)
	}
}

func TestFingerprintStable(t *testing.T) {
	d, _ := newDesc(t, "r", nil, nil)
	f1 := d.Fingerprint()
	f2 := d.Fingerprint()
	if f1 != f2 || len(f1) != 16 {
		t.Fatalf("fingerprint unstable or wrong length: %q %q", f1, f2)
	}
}

// answerWith serves port on host like a directory that answers every
// request with one well-formed frame whose envelope is body.
func answerWith(t *testing.T, host *simnet.Host, port int, body []byte) {
	t.Helper()
	ln, err := host.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req request
				if wire.NewDecoder(conn).Decode(&req) != nil {
					return
				}
				frame := make([]byte, 8+len(body))
				binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
				copy(frame[8:], body)
				conn.Write(frame)
			}()
		}
	}()
}

// okOfSize is a well-formed {"ok":true} envelope padded to exactly n bytes.
func okOfSize(n int) []byte {
	const head, tail = `{"ok":true,"error":"`, `"}`
	return []byte(head + strings.Repeat("x", n-len(head)-len(tail)) + tail)
}

// TestPublishRefusesOversizedResponse: a publish answer larger than
// maxPublishResponse is refused from its header, however well-formed.
func TestPublishRefusesOversizedResponse(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	answerWith(t, n.AddHost("dir", 0), 7000, okOfSize(maxPublishResponse+1))
	d, _ := newDesc(t, "relay1", []string{FlagGuard}, policy.AcceptAll())
	err := Publish(n.AddHost("relay1", 0), "dir:7000", d)
	if err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("Publish took a %d-byte answer: err %v", maxPublishResponse+1, err)
	}
}

// TestFetchConsensusRefusesOversizedResponse: a consensus answer larger
// than maxConsensusResponse is refused from its header.
func TestFetchConsensusRefusesOversizedResponse(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	answerWith(t, n.AddHost("dir", 0), 7000, okOfSize(maxConsensusResponse+1))
	auth, _ := NewAuthority()
	_, err := FetchConsensus(n.AddHost("client", 0), "dir:7000", auth.PublicKey())
	if err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("FetchConsensus read a %d-byte answer: err %.80v", maxConsensusResponse+1, err)
	}
}
