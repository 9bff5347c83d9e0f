package relay

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/wire"
)

// forEachTransport runs fn on both clocks: the relay serves its links
// with deliver callbacks on either, but on a wall-backed clock they run
// concurrently on timer goroutines and on the event clock serialized on
// the dispatcher. newNet makes a fresh network of the subtest's kind. The
// subtests keep the names they had when each clock had its own relay
// transport: "goroutine" is the wall-backed clock, "light" the event
// clock.
func forEachTransport(t *testing.T, fn func(t *testing.T, newNet func() *simnet.Network)) {
	on := func(clock *simnet.Clock) *simnet.Network {
		n := simnet.NewNetwork(clock, time.Millisecond)
		n.SetObs(obs.NewRegistry())
		return n
	}
	t.Run("goroutine", func(t *testing.T) {
		fn(t, func() *simnet.Network { return on(simnet.NewClock(0.001)) })
	})
	t.Run("light", func(t *testing.T) {
		fn(t, func() *simnet.Network {
			clock := simnet.NewEventClock()
			t.Cleanup(clock.Stop)
			return on(clock)
		})
	})
}

// eventDriven reports whether the subtest's network runs on the event clock.
func eventDriven(n *simnet.Network) bool { return n.Clock().EventDriven() }

// rig is a raw link to a relay, to drive it at the cell level.
type rig struct {
	net   *simnet.Network
	relay *Relay
	conn  net.Conn
	layer *otr.Layer
	circ  uint32
}

// newRig creates a relay on a wall-backed clock and completes a CREATE
// handshake with it.
func newRig(t *testing.T, exitPol *policy.ExitPolicy) *rig {
	t.Helper()
	return newRigOn(t, simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond), exitPol)
}

// newRigOn is newRig on a given network.
func newRigOn(t *testing.T, n *simnet.Network, exitPol *policy.ExitPolicy) *rig {
	t.Helper()
	r, err := New(n.AddHost("relay0", 0), Config{
		Nickname:   "relay0",
		Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit},
		ExitPolicy: exitPol,
		Quiet:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	track(t, r)
	t.Cleanup(func() { r.Close() })
	return dial(t, n, r, "client", 7)
}

// dial opens a link from a new host to r and completes a CREATE
// handshake on it.
func dial(t *testing.T, n *simnet.Network, r *Relay, hostName string, circID uint32) *rig {
	t.Helper()
	conn, err := n.AddHost(hostName, 0).Dial(fmt.Sprintf("%s:%d", r.Host().Name(), ORPort))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := r.Descriptor()
	hs, msg, err := otr.NewClientHandshake([]byte(d.Fingerprint()), d.OnionKey)
	if err != nil {
		t.Fatal(err)
	}
	create := &cell.Cell{CircID: circID, Cmd: cell.CmdCreate}
	copy(create.Payload[:], msg)
	if err := cell.Write(conn, create); err != nil {
		t.Fatal(err)
	}
	created, err := cell.Read(conn)
	if err != nil || created.Cmd != cell.CmdCreated {
		t.Fatalf("no CREATED: %v", err)
	}
	keys, err := hs.Finish(created.Payload[:otr.PublicKeyLen+otr.AuthLen])
	if err != nil {
		t.Fatal(err)
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{net: n, relay: r, conn: conn, layer: layer, circ: circID}
}

// sendRelay packs, seals, encrypts, and writes a relay cell.
func (rg *rig) sendRelay(t *testing.T, hdr cell.RelayHeader, data []byte) {
	t.Helper()
	c := &cell.Cell{CircID: rg.circ, Cmd: cell.CmdRelay}
	if err := cell.PackRelay(c.Payload[:], hdr, data); err != nil {
		t.Fatal(err)
	}
	rg.layer.SealForward(c.Payload[:], cell.DigestOffset)
	rg.layer.ApplyForward(c.Payload[:])
	if err := cell.Write(rg.conn, c); err != nil {
		t.Fatal(err)
	}
}

// readCell reads one backward cell. A relay cell addressed to this end
// comes back parsed; anything else — a link cell, or a relay cell that is
// not ours (a spliced end-to-end cell), its payload decrypted — raw.
func (rg *rig) readCell(t *testing.T) (cell.RelayHeader, []byte, *cell.Cell) {
	t.Helper()
	c, err := cell.Read(rg.conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if c.Cmd != cell.CmdRelay {
		return cell.RelayHeader{}, nil, c
	}
	rg.layer.ApplyBackward(c.Payload[:])
	if !cell.Recognized(c.Payload[:]) || !rg.layer.VerifyBackward(c.Payload[:], cell.DigestOffset) {
		return cell.RelayHeader{}, nil, c
	}
	hdr, data, err := cell.ParseRelay(c.Payload[:])
	if err != nil {
		t.Fatal(err)
	}
	return hdr, data, nil
}

// readRelay reads a backward relay cell addressed to this end.
func (rg *rig) readRelay(t *testing.T) (cell.RelayHeader, []byte) {
	t.Helper()
	hdr, data, raw := rg.readCell(t)
	if raw != nil {
		t.Fatalf("got a %v cell, want a relay cell for this end", raw.Cmd)
	}
	return hdr, data
}

// expectDead requires that the relay has given up on the rig's circuit:
// the next thing on the link is DESTROY or its end.
func (rg *rig) expectDead(t *testing.T, why string) {
	t.Helper()
	rg.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := cell.Read(rg.conn); err == nil && got.Cmd != cell.CmdDestroy {
		t.Fatalf("%s: got %v, want DESTROY or EOF", why, got.Cmd)
	}
}

// echoOn serves one echo connection on host:80.
func echoOn(t *testing.T, h *simnet.Host) {
	t.Helper()
	ln, err := h.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
}

// The protocol table: what one relay answers to one client, the same on
// both clocks.

func TestCreateAndExitStream(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		echoOn(t, rg.net.AddHost("dest", 0))

		begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "dest:80"})
		rg.sendRelay(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}, begin)
		hdr, _ := rg.readRelay(t)
		if hdr.Cmd != cell.RelayConnected {
			t.Fatalf("got %v, want CONNECTED", hdr.Cmd)
		}

		rg.sendRelay(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, []byte("payload"))
		hdr, data := rg.readRelay(t)
		if hdr.Cmd != cell.RelayData || !bytes.Equal(data, []byte("payload")) {
			t.Fatalf("echo mismatch: %v %q", hdr.Cmd, data)
		}
	})
}

func TestExitPolicyRefusal(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		restrictive, _ := policy.ParseExitPolicy("reject *:*")
		rg := newRigOn(t, newNet(), restrictive)
		rg.net.AddHost("dest", 0)
		begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "dest:80"})
		rg.sendRelay(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}, begin)
		hdr, _ := rg.readRelay(t)
		if hdr.Cmd != cell.RelayEnd {
			t.Fatalf("got %v, want END for refused exit", hdr.Cmd)
		}
	})
}

func TestBeginMalformedTarget(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		for _, target := range []string{"", "noport", "host:0", "host:99999"} {
			begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: target})
			rg.sendRelay(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}, begin)
			hdr, _ := rg.readRelay(t)
			if hdr.Cmd != cell.RelayEnd {
				t.Fatalf("target %q: got %v, want END", target, hdr.Cmd)
			}
		}
	})
}

func TestDropAbsorbed(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		// DROP cells are absorbed; the circuit stays healthy.
		for i := 0; i < 3; i++ {
			rg.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayDrop}, bytes.Repeat([]byte{0xCC}, 100))
		}
		// Circuit still works afterwards.
		echoOn(t, rg.net.AddHost("dest2", 0))
		begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "dest2:80"})
		rg.sendRelay(t, cell.RelayHeader{StreamID: 2, Cmd: cell.RelayBegin}, begin)
		if hdr, _ := rg.readRelay(t); hdr.Cmd != cell.RelayConnected {
			t.Fatalf("circuit unhealthy after drops: %v", hdr.Cmd)
		}
	})
}

func TestTamperedCellKillsCircuit(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		// A garbled relay cell at the last hop must tear the circuit down.
		c := &cell.Cell{CircID: rg.circ, Cmd: cell.CmdRelay}
		rand.Read(c.Payload[:])
		if err := cell.Write(rg.conn, c); err != nil {
			t.Fatal(err)
		}
		rg.expectDead(t, "garbled cell at the last hop")
	})
}

func TestEstablishIntroRequiresValidSignature(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		est, _ := cell.EncodeControl(&cell.EstablishIntroPayload{
			ServiceID: "abcd0123", // not a valid key, bad signature
			Signature: []byte("forged"),
		})
		rg.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayEstablishIntro}, est)
		rg.expectDead(t, "forged ESTABLISH_INTRO")
		if n := lenOf(rg.relay, rg.relay.intros); n != 0 {
			t.Fatalf("forged registration entered the intro table (%d entries)", n)
		}
	})
}

func TestIntroduce1UnknownService(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		intro, _ := cell.EncodeControl(&cell.Introduce1Payload{
			ServiceID: "0000000000000000000000000000000000000000000000000000000000000000",
			Inner:     []byte("x"),
		})
		rg.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayIntroduce1}, intro)
		hdr, _ := rg.readRelay(t)
		if hdr.Cmd != cell.RelayEnd {
			t.Fatalf("got %v, want END for unknown service", hdr.Cmd)
		}
	})
}

func TestRendezvous1UnknownCookie(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		rv, _ := cell.EncodeControl(&cell.Rendezvous1Payload{
			Cookie: bytes.Repeat([]byte{9}, 20),
			Reply:  []byte("reply"),
		})
		rg.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayRendezvous1}, rv)
		rg.expectDead(t, "RENDEZVOUS1 with an unknown cookie")
	})
}

func TestEstablishRendezvousShortCookie(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		est, _ := cell.EncodeControl(&cell.EstablishRendezvousPayload{Cookie: []byte{1, 2}})
		rg.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayEstablishRendezvous}, est)
		rg.expectDead(t, "short rendezvous cookie")
	})
}

func TestFirstCellMustBeCreate(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		n := newNet()
		r, err := New(n.AddHost("relay0", 0), Config{Nickname: "relay0", Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		conn, err := n.AddHost("client", 0).Dial("relay0:9001")
		if err != nil {
			t.Fatal(err)
		}
		cell.Write(conn, &cell.Cell{CircID: 1, Cmd: cell.CmdRelay})
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := cell.Read(conn); err == nil {
			t.Fatal("relay answered a non-CREATE first cell")
		}
	})
}

func TestDescriptorRoundTrip(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	host := n.AddHost("relay0", 0)
	mb := policy.DefaultMiddlebox()
	r, err := New(host, Config{
		Nickname:   "relay0",
		Flags:      []string{dirauth.FlagBento},
		ExitPolicy: policy.AcceptAll(),
		Middlebox:  mb,
		BentoAddr:  "relay0:5000",
		Quiet:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d, err := r.Descriptor()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.BentoAddr != "relay0:5000" || d.Middlebox == nil {
		t.Fatalf("Bento fields missing: %+v", d)
	}
	if d.Fingerprint() != r.Fingerprint() {
		t.Fatal("fingerprint mismatch between relay and descriptor")
	}
}

// TestFetchHSDescriptorRefusesOversizedResponse: an HSDir answer larger
// than maxHSDirResponse is refused from its header, however well-formed.
func TestFetchHSDescriptorRefusesOversizedResponse(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	ln, err := n.AddHost("dir0", 0).Listen(9030)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const head, tail = `{"ok":true,"descriptor":"`, `"}`
	body := head + strings.Repeat("A", maxHSDirResponse+1-len(head)-len(tail)) + tail
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req hsdirRequest
		if wire.NewDecoder(conn).Decode(&req) != nil {
			return
		}
		frame := make([]byte, 8+len(body))
		binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
		copy(frame[8:], body)
		conn.Write(frame)
	}()
	desc, err := FetchHSDescriptor(n.AddHost("cli", 0), "dir0:9030", "abc")
	if err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("fetch took a %d-byte answer (%d descriptor bytes): err %v", len(body), len(desc), err)
	}
}

func TestHSDirStoreFetch(t *testing.T) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	host := n.AddHost("dir0", 0)
	r, err := New(host, Config{Nickname: "dir0", Flags: []string{dirauth.FlagHSDir}, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ServeHSDir(); err != nil {
		t.Fatal(err)
	}
	cli := n.AddHost("cli", 0)
	desc := []byte(`{"service_id":"abc"}`)
	if err := StoreHSDescriptor(cli, "dir0:9030", "abc", desc); err != nil {
		t.Fatal(err)
	}
	got, err := FetchHSDescriptor(cli, "dir0:9030", "abc")
	if err != nil || !bytes.Equal(got, desc) {
		t.Fatalf("fetch: %q %v", got, err)
	}
	if _, err := FetchHSDescriptor(cli, "dir0:9030", "missing"); err == nil {
		t.Fatal("missing descriptor fetched")
	}
	if err := StoreHSDescriptor(cli, "dir0:9030", "", nil); err == nil {
		t.Fatal("empty store accepted")
	}

	// A request header announcing more than maxHSDirRequest gets the
	// connection closed before any of the announced bytes are sent.
	conn, err := cli.Dial("dir0:9030")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], maxHSDirRequest+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized request header answered with %v, want the connection closed", err)
	}
}

func TestSplitTarget(t *testing.T) {
	cases := []struct {
		in   string
		host string
		port int
		ok   bool
	}{
		{"a:80", "a", 80, true},
		{"localhost:5000", "localhost", 5000, true},
		{"bad", "", 0, false},
		{":80", "", 0, false},
		{"a:0", "", 0, false},
		{"a:70000", "", 0, false},
		{"[::1]:443", "[::1]", 443, true},
		// The target is a client's: the port is digits and nothing else.
		{"a:", "", 0, false},
		{"a:80abc", "", 0, false},
		{"a: 80", "", 0, false},
		{"a:+80", "", 0, false},
		{"a:-80", "", 0, false},
		{"a:80 ", "", 0, false},
		{"a:99999999999999999999", "", 0, false},
	}
	for _, c := range cases {
		h, p, ok := splitTarget(c.in)
		if ok != c.ok || (ok && (h != c.host || p != c.port)) {
			t.Errorf("splitTarget(%q) = %q,%d,%v", c.in, h, p, ok)
		}
	}
}

func BenchmarkSingleHopThroughput(b *testing.B) {
	n := simnet.NewNetwork(simnet.NewClock(0.001), 0)
	host := n.AddHost("relay0", 0)
	r, err := New(host, Config{Nickname: "relay0", ExitPolicy: policy.AcceptAll(), Quiet: true})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	sink := n.AddHost("sink", 0)
	ln, _ := sink.Listen(80)
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	client := n.AddHost("client", 0)
	conn, err := client.Dial("relay0:9001")
	if err != nil {
		b.Fatal(err)
	}
	d, _ := r.Descriptor()
	hs, msg, _ := otr.NewClientHandshake([]byte(d.Fingerprint()), d.OnionKey)
	create := &cell.Cell{CircID: 7, Cmd: cell.CmdCreate}
	copy(create.Payload[:], msg)
	cell.Write(conn, create)
	created, _ := cell.Read(conn)
	keys, _ := hs.Finish(created.Payload[:otr.PublicKeyLen+otr.AuthLen])
	layer, _ := otr.NewLayer(keys)

	send := func(hdr cell.RelayHeader, data []byte) {
		c := &cell.Cell{CircID: 7, Cmd: cell.CmdRelay}
		cell.PackRelay(c.Payload[:], hdr, data)
		layer.SealForward(c.Payload[:], cell.DigestOffset)
		layer.ApplyForward(c.Payload[:])
		cell.Write(conn, c)
	}
	begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "sink:80"})
	send(cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}, begin)
	resp, _ := cell.Read(conn)
	layer.ApplyBackward(resp.Payload[:])

	data := bytes.Repeat([]byte{0xAB}, cell.MaxRelayData)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data)
	}
}
