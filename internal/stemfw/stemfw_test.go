package stemfw

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/sandbox"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
)

// fixture boots a small overlay and returns a Tor client for the firewall.
func fixture(t *testing.T) (*torclient.Client, *simnet.Network) {
	t.Helper()
	n := simnet.NewNetwork(simnet.NewClock(0.0005), 2*time.Millisecond)
	auth, err := dirauth.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("relay%d", i)
		host := n.AddHost(name, 0)
		r, err := relay.New(host, relay.Config{
			Nickname:   name,
			Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit, dirauth.FlagHSDir},
			ExitPolicy: policy.AcceptAll(),
			Quiet:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.ServeHSDir()
		d, _ := r.Descriptor()
		auth.Publish(d)
		t.Cleanup(func() { r.Close() })
	}
	cons, err := auth.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	return torclient.New(n.AddHost("fw-host", 0), cons, 1), n
}

func allCalls() []string {
	return []string{"stem.create_circuit", "stem.close_circuit", "stem.launch_hs"}
}

// newSession returns a session over a fresh handle table, which the test
// closes at cleanup as Container.Close would.
func newSession(t *testing.T, tor *torclient.Client, calls []string) (*Session, *sandbox.Handles) {
	handles := &sandbox.Handles{}
	t.Cleanup(handles.Close)
	return NewSession(tor, handles, calls), handles
}

func TestSessionCircuitLifecycle(t *testing.T) {
	tor, n := fixture(t)
	sess, _ := newSession(t, tor, allCalls())

	// An echo destination.
	echoHost := n.AddHost("echo", 0)
	ln, _ := echoHost.Listen(80)
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { defer c.Close(); io.Copy(c, c) }(c)
		}
	}()

	circ, err := sess.CreateCircuit("echo", 80)
	if err != nil {
		t.Fatalf("CreateCircuit: %v", err)
	}
	stream, err := sess.OpenStream(circ, "echo:80")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	conn, err := sess.Stream(stream)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("ping"))
	got := make([]byte, 4)
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "ping" {
		t.Fatalf("echo through firewall circuit: %q %v", got, err)
	}
	if err := sess.CloseStream(stream); err != nil {
		t.Fatal(err)
	}
	if err := sess.CloseCircuit(circ); err != nil {
		t.Fatal(err)
	}
	// Handles are gone afterwards.
	if _, err := sess.Stream(stream); !errors.Is(err, ErrDenied) {
		t.Fatalf("stale stream handle: %v", err)
	}
	if _, err := sess.OpenStream(circ, "echo:80"); !errors.Is(err, ErrDenied) {
		t.Fatalf("stale circuit handle: %v", err)
	}
}

func TestCallFilterEnforced(t *testing.T) {
	tor, _ := fixture(t)
	sess, _ := newSession(t, tor, []string{"stem.close_circuit"}) // no create
	if _, err := sess.CreateCircuit("anything", 80); !errors.Is(err, ErrDenied) {
		t.Fatalf("create without permission: %v", err)
	}
	ident, _ := hs.NewIdentity()
	if _, err := sess.LaunchHiddenService(ident, nil); !errors.Is(err, ErrDenied) {
		t.Fatalf("launch_hs without permission: %v", err)
	}
}

func TestCircuitLimit(t *testing.T) {
	tor, _ := fixture(t)
	sess, _ := newSession(t, tor, allCalls())
	for i := 0; i < DefaultMaxCircuits; i++ {
		if _, err := sess.CreateCircuit("relay0", relay.ORPort); err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
	}
	if _, err := sess.CreateCircuit("relay0", relay.ORPort); !errors.Is(err, ErrDenied) {
		t.Fatalf("circuit beyond limit: %v", err)
	}
}

func TestSessionIsolation(t *testing.T) {
	// A handle from one session means nothing in another — the firewall
	// "maintains state about the circuits each function is allowed to
	// access" (§5.3).
	tor, _ := fixture(t)
	a, _ := newSession(t, tor, allCalls())
	b, _ := newSession(t, tor, allCalls())
	circ, err := a.CreateCircuit("relay1", relay.ORPort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenStream(circ, "relay1:9001"); !errors.Is(err, ErrDenied) {
		t.Fatalf("cross-session circuit access: %v", err)
	}
	if err := b.CloseCircuit(circ); !errors.Is(err, ErrDenied) {
		t.Fatalf("cross-session circuit close: %v", err)
	}
}

func TestSessionCloseFateShares(t *testing.T) {
	tor, _ := fixture(t)
	sess, handles := newSession(t, tor, allCalls())
	circ, err := sess.CreateCircuit("relay1", relay.ORPort)
	if err != nil {
		t.Fatal(err)
	}
	handles.Close()
	// Everything owned by the session is gone (functions fate-share).
	if _, err := sess.OpenStream(circ, "relay1:9001"); err == nil {
		t.Fatal("session usable after close")
	}
	if _, err := sess.CreateCircuit("relay1", relay.ORPort); !errors.Is(err, ErrDenied) {
		t.Fatalf("create after close: %v", err)
	}
	handles.Close() // idempotent
}

func TestHiddenServiceQueueAndRespond(t *testing.T) {
	tor, n := fixture(t)
	front, _ := newSession(t, tor, allCalls())
	replica, _ := newSession(t, tor, allCalls())

	ident, _ := hs.NewIdentity()
	h, err := front.LaunchHiddenService(ident, nil)
	if err != nil {
		t.Fatalf("LaunchHiddenService: %v", err)
	}
	if blob, err := front.NextIntroduction(h); err != nil || blob != nil {
		t.Fatalf("unexpected introduction: %v %v", blob, err)
	}
	if _, err := front.NextIntroduction(h + 99); !errors.Is(err, ErrDenied) {
		t.Fatalf("unknown HS handle: %v", err)
	}

	// A client introduces itself; the front forwards to the replica.
	content := bytes.Repeat([]byte("served "), 100)
	cli := torclient.New(n.AddHost("visitor", 0), tor.Consensus(), 9)
	done := make(chan []byte, 1)
	go func() {
		conn, err := hs.Dial(cli, ident.ServiceID())
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		data, _ := io.ReadAll(conn)
		done <- data
	}()

	deadline := time.After(20 * time.Second)
	for {
		blob, err := front.NextIntroduction(h)
		if err != nil {
			t.Fatal(err)
		}
		if blob != nil {
			if replica.ActiveTransfers() != 0 {
				t.Fatal("replica busy before responding")
			}
			err := replica.RespondAtRendezvous(ident, blob, func(c net.Conn) {
				defer c.Close()
				c.Write(content)
			})
			if err != nil {
				t.Fatalf("RespondAtRendezvous: %v", err)
			}
			if replica.ActiveTransfers() != 1 {
				t.Fatalf("active = %d right after respond, want 1", replica.ActiveTransfers())
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("introduction never arrived")
		case <-time.After(5 * time.Millisecond):
		}
	}

	select {
	case data := <-done:
		if !bytes.Equal(data, content) {
			t.Fatalf("client got %d bytes, want %d", len(data), len(content))
		}
	case <-time.After(20 * time.Second):
		t.Fatal("client download never completed")
	}

	// After the client closes, the transfer drains from the load report.
	deadline = time.After(10 * time.Second)
	for replica.ActiveTransfers() != 0 {
		select {
		case <-deadline:
			t.Fatalf("active transfers stuck at %d", replica.ActiveTransfers())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestRespondRejectsGarbageIntro(t *testing.T) {
	tor, _ := fixture(t)
	sess, _ := newSession(t, tor, allCalls())
	ident, _ := hs.NewIdentity()
	if err := sess.RespondAtRendezvous(ident, []byte("not json"), func(net.Conn) {}); err == nil {
		t.Fatal("garbage introduction accepted")
	}
}

func TestSendDropRequiresOwnedCircuit(t *testing.T) {
	tor, _ := fixture(t)
	sess, _ := newSession(t, tor, allCalls())
	if err := sess.SendDrop(123, []byte("junk")); !errors.Is(err, ErrDenied) {
		t.Fatalf("drop on unknown circuit: %v", err)
	}
	circ, err := sess.CreateCircuit("relay1", relay.ORPort)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendDrop(circ, []byte("junk")); err != nil {
		t.Fatalf("drop on owned circuit: %v", err)
	}
}

// TestRendezvousEntriesReleased: each rendezvous a replica answers is an
// entry of its table until the client's circuit tears down, so after K
// transfers end the table holds none and the load report reads zero.
func TestRendezvousEntriesReleased(t *testing.T) {
	const K = 3
	tor, n := fixture(t)
	front, _ := newSession(t, tor, allCalls())
	replica, handles := newSession(t, tor, allCalls())
	ident, _ := hs.NewIdentity()
	h, err := front.LaunchHiddenService(ident, nil)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("rendezvous payload")
	cli := torclient.New(n.AddHost("visitor", 0), tor.Consensus(), 9)
	for i := 0; i < K; i++ {
		done := make(chan []byte, 1)
		go func() {
			conn, err := hs.Dial(cli, ident.ServiceID())
			if err != nil {
				done <- nil
				return
			}
			defer conn.Close()
			data, _ := io.ReadAll(conn)
			done <- data
		}()
		deadline := time.After(20 * time.Second)
		for {
			blob, err := front.NextIntroduction(h)
			if err != nil {
				t.Fatal(err)
			}
			if blob != nil {
				err := replica.RespondAtRendezvous(ident, blob, func(c net.Conn) {
					defer c.Close()
					c.Write(content)
				})
				if err != nil {
					t.Fatalf("transfer %d: RespondAtRendezvous: %v", i, err)
				}
				break
			}
			select {
			case <-deadline:
				t.Fatalf("transfer %d: introduction never arrived", i)
			case <-time.After(5 * time.Millisecond):
			}
		}
		select {
		case data := <-done:
			if !bytes.Equal(data, content) {
				t.Fatalf("transfer %d: client got %q", i, data)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("transfer %d never completed", i)
		}
	}
	deadline := time.After(10 * time.Second)
	for handles.Count(sandbox.KindRendezvous) != 0 || replica.ActiveTransfers() != 0 {
		select {
		case <-deadline:
			t.Fatalf("after %d transfers: %d rendezvous entries, %d active",
				K, handles.Count(sandbox.KindRendezvous), replica.ActiveTransfers())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
