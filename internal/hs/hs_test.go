package hs

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
)

type fixture struct {
	net    *simnet.Network
	cons   *dirauth.Consensus
	relays []*relay.Relay
}

func buildFixture(t testing.TB, nRelays int) *fixture {
	t.Helper()
	n := simnet.NewNetwork(simnet.NewClock(0.0005), 2*time.Millisecond)
	auth, err := dirauth.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	var relays []*relay.Relay
	for i := 0; i < nRelays; i++ {
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
		if err := r.ServeHSDir(); err != nil {
			t.Fatal(err)
		}
		d, _ := r.Descriptor()
		if err := auth.Publish(d); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		relays = append(relays, r)
	}
	cons, err := auth.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: n, cons: cons, relays: relays}
}

func TestDescriptorSignVerify(t *testing.T) {
	ident, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	d := &Descriptor{
		ServiceID:   ident.ServiceID(),
		OnionKey:    ident.Onion.Public(),
		IntroPoints: []IntroPoint{{Nickname: "r1", Addr: "r1:9001"}},
	}
	if err := d.Sign(ident.Priv); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	d.IntroPoints[0].Nickname = "evil"
	if err := d.Verify(); err == nil {
		t.Fatal("tampered descriptor accepted")
	}
}

func TestDescriptorVerifyWrongID(t *testing.T) {
	ident, _ := NewIdentity()
	other, _ := NewIdentity()
	d := &Descriptor{ServiceID: other.ServiceID(), OnionKey: ident.Onion.Public()}
	if err := d.Sign(ident.Priv); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err == nil {
		t.Fatal("descriptor signed by wrong key accepted")
	}
	bad := &Descriptor{ServiceID: "zz-not-hex"}
	if err := bad.Verify(); err == nil {
		t.Fatal("malformed service ID accepted")
	}
}

func TestResponsibleHSDirsStable(t *testing.T) {
	f := buildFixture(t, 5)
	ident, _ := NewIdentity()
	a := ResponsibleHSDirs(f.cons, ident.ServiceID())
	b := ResponsibleHSDirs(f.cons, ident.ServiceID())
	if len(a) != ReplicaCount || len(b) != ReplicaCount {
		t.Fatalf("got %d/%d dirs, want %d", len(a), len(b), ReplicaCount)
	}
	for i := range a {
		if a[i].Nickname != b[i].Nickname {
			t.Fatal("responsible HSDirs not deterministic")
		}
	}
	if a[0].Nickname == a[1].Nickname {
		t.Fatal("duplicate responsible HSDir")
	}
}

func TestPublishFetchDescriptor(t *testing.T) {
	f := buildFixture(t, 4)
	ident, _ := NewIdentity()
	client := f.net.AddHost("svc", 0)

	d := &Descriptor{
		ServiceID:   ident.ServiceID(),
		OnionKey:    ident.Onion.Public(),
		IntroPoints: []IntroPoint{{Nickname: "relay0", Addr: "relay0:9001"}},
	}
	if err := d.Sign(ident.Priv); err != nil {
		t.Fatal(err)
	}
	if err := PublishDescriptor(client, f.cons, d); err != nil {
		t.Fatal(err)
	}

	fetcher := f.net.AddHost("fetcher", 0)
	got, err := FetchDescriptor(fetcher, f.cons, ident.ServiceID())
	if err != nil {
		t.Fatal(err)
	}
	if got.ServiceID != d.ServiceID || len(got.IntroPoints) != 1 {
		t.Fatalf("fetched descriptor mismatch: %+v", got)
	}

	// Unknown service.
	other, _ := NewIdentity()
	if _, err := FetchDescriptor(fetcher, f.cons, other.ServiceID()); err == nil {
		t.Fatal("fetched descriptor for unknown service")
	}

	// Unsigned descriptors are refused at publish time.
	unsigned := &Descriptor{ServiceID: ident.ServiceID()}
	if err := PublishDescriptor(client, f.cons, unsigned); err == nil {
		t.Fatal("unsigned descriptor published")
	}
}

func TestHiddenServiceEndToEnd(t *testing.T) {
	f := buildFixture(t, 6)

	// Launch an echo hidden service.
	svcClient := torclient.New(f.net.AddHost("service-host", 0), f.cons, 50)
	ident, _ := NewIdentity()
	svc, err := Launch(svcClient, ident, ServiceConfig{
		NumIntroPoints: 2,
		Handler: func(c net.Conn) {
			defer c.Close()
			io.Copy(c, c)
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer svc.Close()

	// Client connects and exchanges data.
	cli := torclient.New(f.net.AddHost("alice", 0), f.cons, 51)
	conn, err := Dial(cli, svc.ServiceID())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	msg := bytes.Repeat([]byte("onion service payload "), 300)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("hidden service data mismatch")
	}
}

func TestHiddenServiceMultipleClients(t *testing.T) {
	f := buildFixture(t, 6)
	svcClient := torclient.New(f.net.AddHost("service-host", 0), f.cons, 60)
	ident, _ := NewIdentity()
	svc, err := Launch(svcClient, ident, ServiceConfig{
		Handler: func(c net.Conn) {
			defer c.Close()
			io.Copy(c, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := torclient.New(f.net.AddHost(fmt.Sprintf("client%d", i), 0), f.cons, int64(70+i))
			conn, err := Dial(cli, svc.ServiceID())
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", i, err)
				return
			}
			defer conn.Close()
			msg := bytes.Repeat([]byte{byte('A' + i)}, 2000)
			conn.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(conn, got); err != nil {
				errs <- fmt.Errorf("client %d read: %w", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("client %d data mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRendezvousCircuitsDropped: a service that serves its clients itself
// keeps each rendezvous circuit only until it closes, so after five
// clients that came and went it holds none.
func TestRendezvousCircuitsDropped(t *testing.T) {
	f := buildFixture(t, 5)
	svcClient := torclient.New(f.net.AddHost("service-host", 0), f.cons, 80)
	ident, _ := NewIdentity()
	svc, err := Launch(svcClient, ident, ServiceConfig{
		Handler: func(c net.Conn) {
			defer c.Close()
			io.Copy(c, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cli := torclient.New(f.net.AddHost("client", 0), f.cons, 81)
	for i := 0; i < 5; i++ {
		conn, err := Dial(cli, svc.ServiceID())
		if err != nil {
			t.Fatalf("client %d dial: %v", i, err)
		}
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
			t.Fatalf("client %d read: %v", i, err)
		}
		conn.Close()
	}
	rendCircs := func() int {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.rendCircs)
	}
	for deadline := time.Now().Add(10 * time.Second); rendCircs() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("service holds %d rendezvous circuits after its 5 clients closed", rendCircs())
		}
	}
}

func TestDelegatedIntroduce(t *testing.T) {
	// The LoadBalancer pattern: the front service delegates each
	// introduction to a replica that holds a copy of the identity.
	f := buildFixture(t, 6)

	ident, _ := NewIdentity()
	replicaClient := torclient.New(f.net.AddHost("replica", 0), f.cons, 80)

	introductions := make(chan *cell.IntroducePlaintext, 4)
	frontClient := torclient.New(f.net.AddHost("front", 0), f.cons, 81)
	svc, err := Launch(frontClient, ident, ServiceConfig{
		OnIntroduce: func(intro *cell.IntroducePlaintext) {
			introductions <- intro
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Replica worker: answer rendezvous on the front's behalf.
	go func() {
		for intro := range introductions {
			RespondAtRendezvous(replicaClient, ident, intro, func(c net.Conn) {
				defer c.Close()
				c.Write([]byte("served by replica"))
			})
		}
	}()

	cli := torclient.New(f.net.AddHost("bob", 0), f.cons, 82)
	conn, err := Dial(cli, svc.ServiceID())
	if err != nil {
		t.Fatalf("Dial via delegated introduce: %v", err)
	}
	defer conn.Close()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "served by replica" {
		t.Fatalf("got %q", got)
	}
}

func TestSessionMultipleStreams(t *testing.T) {
	f := buildFixture(t, 6)
	svcClient := torclient.New(f.net.AddHost("service-host", 0), f.cons, 90)
	ident, _ := NewIdentity()
	svc, err := Launch(svcClient, ident, ServiceConfig{
		Handler: func(c net.Conn) {
			defer c.Close()
			io.Copy(c, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli := torclient.New(f.net.AddHost("carol", 0), f.cons, 91)
	sess, err := Connect(cli, svc.ServiceID())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for i := 0; i < 3; i++ {
		s, err := sess.Open()
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		msg := []byte(fmt.Sprintf("stream %d", i))
		s.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(s, got); err != nil {
			t.Fatalf("stream %d read: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("stream %d mismatch", i)
		}
		s.Close()
	}
}

func BenchmarkHiddenServiceDial(b *testing.B) {
	f := buildFixture(b, 6)
	svcClient := torclient.New(f.net.AddHost("bench-svc", 0), f.cons, 500)
	ident, _ := NewIdentity()
	svc, err := Launch(svcClient, ident, ServiceConfig{
		Handler: func(c net.Conn) { c.Close() },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	cli := torclient.New(f.net.AddHost("bench-cli", 0), f.cons, 501)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := Dial(cli, svc.ServiceID())
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

func TestConnectFailsWhenIntroPointUnknown(t *testing.T) {
	f := buildFixture(t, 4)
	ident, _ := NewIdentity()
	d := &Descriptor{
		ServiceID:   ident.ServiceID(),
		OnionKey:    ident.Onion.Public(),
		IntroPoints: []IntroPoint{{Nickname: "ghost-relay", Addr: "ghost:9001"}},
	}
	if err := d.Sign(ident.Priv); err != nil {
		t.Fatal(err)
	}
	if err := PublishDescriptor(f.net.AddHost("pub", 0), f.cons, d); err != nil {
		t.Fatal(err)
	}
	cli := torclient.New(f.net.AddHost("alice", 0), f.cons, 700)
	if _, err := Connect(cli, ident.ServiceID()); err == nil {
		t.Fatal("connected via intro point missing from consensus")
	}
}

func TestDialAfterServiceClose(t *testing.T) {
	f := buildFixture(t, 5)
	svcClient := torclient.New(f.net.AddHost("svc", 0), f.cons, 701)
	ident, _ := NewIdentity()
	svc, err := Launch(svcClient, ident, ServiceConfig{
		Handler: func(c net.Conn) { c.Close() },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify it is reachable, then close it.
	cli := torclient.New(f.net.AddHost("alice", 0), f.cons, 702)
	if conn, err := Dial(cli, svc.ServiceID()); err != nil {
		t.Fatalf("dial while up: %v", err)
	} else {
		conn.Close()
	}
	svc.Close()
	// The stale descriptor leads to a clean failure, not a hang: the
	// intro point's circuit is gone, so INTRODUCE1 is refused.
	if _, err := Dial(cli, svc.ServiceID()); err == nil {
		t.Fatal("dialed a closed service")
	}
}

func TestDescriptorUnknownService(t *testing.T) {
	f := buildFixture(t, 3)
	cli := torclient.New(f.net.AddHost("alice", 0), f.cons, 703)
	ident, _ := NewIdentity()
	if _, err := Connect(cli, ident.ServiceID()); err == nil {
		t.Fatal("connected to unpublished service")
	}
}

func TestDescriptorFetchSurvivesHSDirFailure(t *testing.T) {
	f := buildFixture(t, 5)
	ident, _ := NewIdentity()
	d := &Descriptor{
		ServiceID:   ident.ServiceID(),
		OnionKey:    ident.Onion.Public(),
		IntroPoints: []IntroPoint{{Nickname: "relay0", Addr: "relay0:9001"}},
	}
	if err := d.Sign(ident.Priv); err != nil {
		t.Fatal(err)
	}
	pub := f.net.AddHost("pub", 0)
	if err := PublishDescriptor(pub, f.cons, d); err != nil {
		t.Fatal(err)
	}

	// Kill the first responsible HSDir; the replica must still serve.
	dirs := ResponsibleHSDirs(f.cons, ident.ServiceID())
	if len(dirs) != ReplicaCount {
		t.Fatalf("%d responsible dirs", len(dirs))
	}
	for _, r := range f.relays {
		if r.Nickname() == dirs[0].Nickname {
			r.Close()
		}
	}
	fetcher := f.net.AddHost("fetcher", 0)
	got, err := FetchDescriptor(fetcher, f.cons, ident.ServiceID())
	if err != nil {
		t.Fatalf("fetch with one HSDir down: %v", err)
	}
	if got.ServiceID != ident.ServiceID() {
		t.Fatal("wrong descriptor")
	}
}
