package torclient

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/simnet"
)

// testNet is a small Tor overlay for integration tests.
type testNet struct {
	net    *simnet.Network
	auth   *dirauth.Authority
	relays []*relay.Relay
	cons   *dirauth.Consensus
}

// buildTestNet creates nRelays relays (all Guard+Exit+HSDir with accept-all
// policies), a destination web host, and a client host.
func buildTestNet(t testing.TB, nRelays int) *testNet {
	t.Helper()
	return buildTestNetOn(t, simnet.NewNetwork(simnet.NewClock(0.0005), 2*time.Millisecond), nRelays)
}

// buildTestNetOn is buildTestNet on a network (and so a clock) of the
// caller's choosing.
func buildTestNetOn(t testing.TB, n *simnet.Network, nRelays int) *testNet {
	t.Helper()
	auth, err := dirauth.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNet{net: n, auth: auth}
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
		d, err := r.Descriptor()
		if err != nil {
			t.Fatal(err)
		}
		if err := auth.Publish(d); err != nil {
			t.Fatal(err)
		}
		tn.relays = append(tn.relays, r)
	}
	cons, err := auth.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	tn.cons = cons
	t.Cleanup(func() {
		for _, r := range tn.relays {
			r.Close()
		}
	})
	return tn
}

// startEcho runs an echo server on a fresh host.
func (tn *testNet) startEcho(t testing.TB, name string, port int) {
	t.Helper()
	h := tn.net.AddHost(name, 0)
	ln, err := h.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
}

func TestThreeHopCircuitEcho(t *testing.T) {
	tn := buildTestNet(t, 4)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 1)

	path, err := client.PickPath("web", 80)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := client.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if circ.Len() != 3 {
		t.Fatalf("circuit has %d layers, want 3", circ.Len())
	}

	stream, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("tor stream data "), 200) // multi-cell
	if _, err := stream.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(stream, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echoed data mismatch")
	}
	stream.Close()
}

func TestSingleHopCircuit(t *testing.T) {
	tn := buildTestNet(t, 1)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 2)

	circ, err := client.BuildCircuit(tn.cons.Relays[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	stream, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	stream.Write([]byte("ping"))
	got := make([]byte, 4)
	if _, err := io.ReadFull(stream, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
}

func TestExitPolicyEnforced(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.0005), time.Millisecond)
	auth, _ := dirauth.NewAuthority()
	restrictive, _ := policy.ParseExitPolicy("accept web:80", "reject *:*")
	host := n.AddHost("r0", 0)
	r, err := relay.New(host, relay.Config{
		Nickname:   "r0",
		Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit},
		ExitPolicy: restrictive,
		Quiet:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d, _ := r.Descriptor()
	auth.Publish(d)
	cons, _ := auth.Consensus()

	// Destination the policy forbids.
	webHost := n.AddHost("forbidden", 0)
	ln, _ := webHost.Listen(80)
	defer ln.Close()

	client := New(n.AddHost("client", 0), cons, 3)
	circ, err := client.BuildCircuit(cons.Relays)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.OpenStream("forbidden:80"); err == nil {
		t.Fatal("stream to policy-forbidden destination opened")
	}
}

func TestStreamToUnreachableHost(t *testing.T) {
	tn := buildTestNet(t, 3)
	client := New(tn.net.AddHost("client", 0), tn.cons, 4)
	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.OpenStream("nonexistent:80"); err == nil {
		t.Fatal("stream to unreachable host opened")
	}
	// Circuit must survive the failed stream.
	tn.startEcho(t, "web2", 80)
	s, err := circ.OpenStream("web2:80")
	if err != nil {
		t.Fatalf("circuit unusable after failed stream: %v", err)
	}
	s.Close()
}

func TestConcurrentStreams(t *testing.T) {
	tn := buildTestNet(t, 3)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 5)
	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := circ.OpenStream("web:80")
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			msg := bytes.Repeat([]byte{byte('a' + i)}, 5000)
			if _, err := s.Write(msg); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(s, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("stream %d data corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSendDrop(t *testing.T) {
	tn := buildTestNet(t, 3)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 6)
	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	// Interleave DROP cells with real traffic; the stream must be
	// unaffected.
	s, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := circ.SendDrop(bytes.Repeat([]byte{0xAB}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Write([]byte("real data"))
	got := make([]byte, 9)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "real data" {
		t.Fatalf("got %q", got)
	}
}

func TestTrafficTapObservesCells(t *testing.T) {
	tn := buildTestNet(t, 3)
	tn.startEcho(t, "web", 80)
	clientHost := tn.net.AddHost("client", 0)
	client := New(clientHost, tn.cons, 7)

	var mu sync.Mutex
	var out, in int
	client.SetTrafficTap(func(dir, size int, _ time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if dir > 0 {
			out += size
		} else {
			in += size
		}
	})

	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	s, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 10*cell.MaxRelayData)
	s.Write(payload)
	got := make([]byte, len(payload))
	io.ReadFull(s, got)

	mu.Lock()
	defer mu.Unlock()
	if out < 10*cell.Size || in < 10*cell.Size {
		t.Fatalf("tap saw out=%d in=%d, want ≥%d each", out, in, 10*cell.Size)
	}
	if out%cell.Size != 0 {
		t.Fatalf("outbound bytes %d not cell-aligned", out)
	}
}

func TestCircuitCloseUnblocksStreams(t *testing.T) {
	tn := buildTestNet(t, 3)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 8)
	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	s, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 1))
		done <- err
	}()
	circ.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned nil after circuit close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream read not unblocked by circuit close")
	}
}

// TestManualRendezvous exercises the full hidden-service cell protocol at
// the circuit level: ESTABLISH_INTRO, INTRODUCE1/2, ESTABLISH_RENDEZVOUS,
// RENDEZVOUS1/2, circuit splicing at the RP, and end-to-end streams over
// the spliced circuits.
func TestManualRendezvous(t *testing.T) {
	tn := buildTestNet(t, 5)

	// The "hidden service" side.
	svcHost := tn.net.AddHost("service", 0)
	svcClient := New(svcHost, tn.cons, 100)
	svcPub, svcPriv, _ := ed25519.GenerateKey(rand.Reader)
	serviceID := hex.EncodeToString(svcPub)
	svcOnion, _ := otr.NewOnionKey()

	// Service establishes an intro circuit to relay0.
	introCirc, err := svcClient.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer introCirc.Close()

	introduce2 := make(chan []byte, 1)
	if err := introCirc.EstablishIntro(svcPriv, serviceID, func(data []byte) {
		introduce2 <- data
	}); err != nil {
		t.Fatalf("EstablishIntro: %v", err)
	}

	// Client side: establish a rendezvous point at relay3.
	cliHost := tn.net.AddHost("alice", 0)
	cli := New(cliHost, tn.cons, 101)
	rpDesc := tn.cons.Relay("relay3")
	rendCirc, err := cli.BuildCircuit([]*dirauth.Descriptor{
		tn.cons.Relay("relay4"), tn.cons.Relay("relay1"), rpDesc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rendCirc.Close()
	cookie := make([]byte, 20)
	rand.Read(cookie)
	if err := rendCirc.EstablishRendezvous(cookie); err != nil {
		t.Fatalf("EstablishRendezvous: %v", err)
	}

	// Client introduces itself via the intro point.
	hs, handshake, err := otr.NewClientHandshake([]byte(serviceID), svcOnion.Public())
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := cell.EncodeControl(&cell.IntroducePlaintext{
		RendezvousAddr: rpDesc.Address,
		RendezvousNick: rpDesc.Nickname,
		Cookie:         cookie,
		Handshake:      handshake,
	})
	// The service's intro circuit ends at relay2, so the client's
	// introduction circuit must terminate there.
	introCliCirc, err := cli.BuildCircuit([]*dirauth.Descriptor{
		tn.cons.Relay("relay4"), tn.cons.Relay("relay0"), tn.cons.Relay("relay2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer introCliCirc.Close()
	if err := introCliCirc.SendIntroduce1(serviceID, inner); err != nil {
		t.Fatalf("SendIntroduce1: %v", err)
	}

	// Service receives INTRODUCE2, completes the service handshake, and
	// meets the client at the RP.
	var intro cell.IntroducePlaintext
	select {
	case data := <-introduce2:
		if err := cell.DecodeControl(data, &intro); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("INTRODUCE2 never arrived")
	}
	reply, svcKeys, err := otr.ServerHandshake([]byte(serviceID), svcOnion, intro.Handshake)
	if err != nil {
		t.Fatal(err)
	}
	hsCirc, err := svcClient.BuildCircuit([]*dirauth.Descriptor{
		tn.cons.Relay("relay1"), tn.cons.Relay("relay2"), tn.cons.Relay(intro.RendezvousNick),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hsCirc.Close()

	// The service accepts echo sessions at the service layer.
	if err := hsCirc.AttachServiceLayer(svcKeys, func(c net.Conn) {
		defer c.Close()
		io.Copy(c, c)
	}); err != nil {
		t.Fatal(err)
	}
	if err := hsCirc.SendRendezvous1(intro.Cookie, reply); err != nil {
		t.Fatalf("SendRendezvous1: %v", err)
	}

	// Client completes the handshake and opens a stream to the service.
	gotReply, err := rendCirc.AwaitRendezvous2()
	if err != nil {
		t.Fatalf("AwaitRendezvous2: %v", err)
	}
	cliKeys, err := hs.Finish(gotReply)
	if err != nil {
		t.Fatalf("service handshake: %v", err)
	}
	if err := rendCirc.AttachRendezvousLayer(cliKeys); err != nil {
		t.Fatal(err)
	}

	stream, err := rendCirc.OpenStream("service:0")
	if err != nil {
		t.Fatalf("OpenStream over rendezvous: %v", err)
	}
	msg := bytes.Repeat([]byte("hidden service data! "), 100)
	if _, err := stream.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(stream, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("rendezvous stream data mismatch")
	}
	stream.Close()
}

func TestBuildCircuitEmptyPath(t *testing.T) {
	tn := buildTestNet(t, 1)
	client := New(tn.net.AddHost("client", 0), tn.cons, 9)
	if _, err := client.BuildCircuit(nil); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestPickRelay(t *testing.T) {
	tn := buildTestNet(t, 3)
	client := New(tn.net.AddHost("client", 0), tn.cons, 10)
	if d := client.PickRelay(dirauth.FlagGuard); d == nil {
		t.Fatal("no guard picked")
	}
	if d := client.PickRelay("NoSuchFlag"); d != nil {
		t.Fatal("picked relay for unknown flag")
	}
}

func BenchmarkCircuitBuild3Hop(b *testing.B) {
	tn := buildTestNet(b, 4)
	client := New(tn.net.AddHost("bench-client", 0), tn.cons, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circ, err := client.BuildCircuit(tn.cons.Relays[:3])
		if err != nil {
			b.Fatal(err)
		}
		circ.Close()
	}
}

func BenchmarkStreamThroughput3Hop(b *testing.B) {
	tn := buildTestNet(b, 3)
	tn.startEcho(b, "bench-web", 80)
	client := New(tn.net.AddHost("bench-client", 0), tn.cons, 98)
	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		b.Fatal(err)
	}
	defer circ.Close()
	s, err := circ.OpenStream("bench-web:80")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 16*1024)
	got := make([]byte, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(s, got); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamDeadlineNotSticky(t *testing.T) {
	tn := buildTestNet(t, 3)
	tn.startEcho(t, "web", 80)
	client := New(tn.net.AddHost("client", 0), tn.cons, 11)
	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	s, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	// A read with nothing pending times out...
	s.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := s.Read(make([]byte, 1)); err == nil {
		t.Fatal("read did not time out")
	} else if te, ok := err.(interface{ Timeout() bool }); !ok || !te.Timeout() {
		t.Fatalf("got %v, want timeout error", err)
	}
	// ...but clearing the deadline restores the stream.
	s.SetReadDeadline(time.Time{})
	if _, err := s.Write([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatalf("stream dead after timeout: %v", err)
	}
	if string(got) != "alive" {
		t.Fatalf("got %q", got)
	}
}

// TestSoakManyConcurrentCircuits drives many clients building circuits
// and exchanging data simultaneously through a small relay set — a
// deadlock/livelock shakeout for the relay switching fabric.
func TestSoakManyConcurrentCircuits(t *testing.T) {
	tn := buildTestNet(t, 5)
	tn.startEcho(t, "soak-web", 80)

	const clients = 16
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			cli := New(tn.net.AddHost(fmt.Sprintf("soak%d", i), 0), tn.cons, int64(1000+i))
			for round := 0; round < 3; round++ {
				path, err := cli.PickPath("soak-web", 80)
				if err != nil {
					errs <- err
					return
				}
				circ, err := cli.BuildCircuit(path)
				if err != nil {
					errs <- err
					return
				}
				s, err := circ.OpenStream("soak-web:80")
				if err != nil {
					circ.Close()
					errs <- err
					return
				}
				msg := bytes.Repeat([]byte{byte(i), byte(round)}, 2000)
				if _, err := s.Write(msg); err != nil {
					circ.Close()
					errs <- err
					return
				}
				got := make([]byte, len(msg))
				if _, err := io.ReadFull(s, got); err != nil {
					circ.Close()
					errs <- err
					return
				}
				if !bytes.Equal(got, msg) {
					circ.Close()
					errs <- fmt.Errorf("client %d round %d corrupted", i, round)
					return
				}
				circ.Close()
			}
			errs <- nil
		}(i)
	}
	deadline := time.After(120 * time.Second)
	for i := 0; i < clients; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("soak test deadlocked")
		}
	}
}

func TestCoverPlugin(t *testing.T) {
	tn := buildTestNet(t, 3)
	tn.startEcho(t, "web", 80)
	clientHost := tn.net.AddHost("client", 0)
	client := New(clientHost, tn.cons, 12)

	var mu sync.Mutex
	outCells := 0
	client.SetTrafficTap(func(dir, size int, _ time.Duration) {
		if dir > 0 {
			mu.Lock()
			outCells += size / cell.Size
			mu.Unlock()
		}
	})

	circ, err := client.BuildCircuit(tn.cons.Relays[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	plugin := circ.StartCover(50 * time.Millisecond)
	// Wait in wall time: at this clock scale the virtual interval rounds
	// up to OS timer granularity, so judge emission by real elapsed time.
	time.Sleep(150 * time.Millisecond)
	plugin.Stop()
	sent := plugin.Sent()
	if sent < 5 {
		t.Fatalf("cover plugin sent only %d cells in 2s at 50ms", sent)
	}
	mu.Lock()
	observed := outCells
	mu.Unlock()
	if observed < sent {
		t.Fatalf("tap saw %d outbound cells, plugin claims %d", observed, sent)
	}
	// The circuit still works under and after padding.
	s, err := circ.OpenStream("web:80")
	if err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("hi"))
	got := make([]byte, 2)
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "hi" {
		t.Fatalf("stream broken after cover: %q %v", got, err)
	}
	// Stop is idempotent and halts emission (at most one in-flight cell
	// may land after Stop returns).
	plugin.Stop()
	before := plugin.Sent()
	time.Sleep(30 * time.Millisecond)
	if after := plugin.Sent(); after > before+1 {
		t.Fatalf("plugin kept sending after Stop: %d -> %d", before, after)
	}
}
