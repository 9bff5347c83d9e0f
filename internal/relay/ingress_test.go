package relay

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
)

// onOneP runs the rest of the test on one P. The event core's settle
// decides the system is quiescent when three Gosched rounds see no bridge
// activity, which holds only if a runnable goroutine cannot be
// mid-computation on another P (benchmark/README.md, "Recorded limits"):
// on 2 P a helper still inside its ntor handshake is sprinted past and
// the client's 10-virtual-minute control timeout fires at wall time 0.
// Only the tests that build circuits through torclient call this.
func onOneP(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// buildLightNet is a light-ingress overlay on the event clock: nRelays
// relays (Guard+Exit, accept-all) served entirely through deliver
// callbacks, published into a consensus.
func buildLightNet(t testing.TB, nRelays int) (*simnet.Network, []*Relay, *dirauth.Consensus) {
	t.Helper()
	clock := simnet.NewEventClock()
	n := simnet.NewNetwork(clock, 2*time.Millisecond)
	n.SetObs(obs.NewRegistry())
	t.Cleanup(clock.Stop)
	auth, err := dirauth.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	relays := make([]*Relay, 0, nRelays)
	for i := 0; i < nRelays; i++ {
		name := fmt.Sprintf("relay%d", i)
		host := n.AddHost(name, 0)
		r, err := New(host, Config{
			Nickname:     name,
			Flags:        []string{dirauth.FlagGuard, dirauth.FlagExit},
			ExitPolicy:   policy.AcceptAll(),
			LightIngress: true,
			Quiet:        true,
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
		relays = append(relays, r)
		t.Cleanup(func() { r.Close() })
	}
	cons, err := auth.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	return n, relays, cons
}

// TestLightIngressThreeHopEcho drives a real 3-hop circuit — telescoped
// ntor handshakes, an exit stream, echoed data spanning multiple cells —
// through relays that own zero per-link goroutines.
func TestLightIngressThreeHopEcho(t *testing.T) {
	onOneP(t) // unpinned on 2 P: "timeout waiting for EXTENDED" in 71 of 120 runs, parent 7 of 10
	n, relays, cons := buildLightNet(t, 3)

	echoHost := n.AddHost("dest", 0)
	ln, err := echoHost.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()

	cliHost := n.AddHost("client", 0)
	client := torclient.New(cliHost, cons, 7)
	circ, err := client.BuildCircuit(cons.Relays[:3])
	if err != nil {
		t.Fatalf("3-hop build over light ingress: %v", err)
	}
	defer circ.Close()

	stream, err := circ.OpenStream("dest:80")
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	// Spans several DATA cells each way.
	payload := bytes.Repeat([]byte("bento-light-ingress!"), 60)
	if _, err := stream.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(stream, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("echo mismatch through 3 light hops")
	}

	// The middle hops really took the light forward path.
	var fwd int64
	for range relays {
		fwd = relays[0].m.fwdCells.Value()
	}
	if fwd == 0 {
		t.Fatal("guard relay forwarded no cells on the light path")
	}
}

// lightRig is a raw cell-level link to a light relay on the event
// clock, for driving the rendezvous machinery directly.
type lightRig struct {
	conn  net.Conn
	layer *otr.Layer
	circ  uint32
}

func dialLight(t *testing.T, n *simnet.Network, r *Relay, hostName string, circID uint32) *lightRig {
	t.Helper()
	h := n.AddHost(hostName, 0)
	conn, err := h.Dial(r.Host().Name() + ":9001")
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
		t.Fatalf("no CREATED from light ingress: %v", err)
	}
	keys, err := hs.Finish(created.Payload[:otr.PublicKeyLen+otr.AuthLen])
	if err != nil {
		t.Fatal(err)
	}
	layer, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	return &lightRig{conn: conn, layer: layer, circ: circID}
}

func (rg *lightRig) sendRelay(t *testing.T, hdr cell.RelayHeader, data []byte) {
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

func (rg *lightRig) readRelay(t *testing.T) (cell.RelayHeader, []byte, *cell.Cell) {
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
		// Not addressed to us (e.g. a spliced end-to-end cell): hand the
		// decrypted payload back raw.
		return cell.RelayHeader{}, nil, c
	}
	hdr, data, err := cell.ParseRelay(c.Payload[:])
	if err != nil {
		t.Fatal(err)
	}
	return hdr, data, nil
}

// TestLightIngressRendezvousSplice establishes a rendezvous point on a
// light relay, splices a second circuit onto it, and pushes an
// end-to-end cell across the splice — the full -exp scale HS op shape.
func TestLightIngressRendezvousSplice(t *testing.T) {
	n, relays, _ := buildLightNet(t, 1)
	r := relays[0]

	cli := dialLight(t, n, r, "cli", 11)
	svc := dialLight(t, n, r, "svc", 22)

	cookie := bytes.Repeat([]byte{0xA7}, 20)
	est, _ := cell.EncodeControl(&cell.EstablishRendezvousPayload{Cookie: cookie})
	cli.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayEstablishRendezvous}, est)
	if hdr, _, raw := cli.readRelay(t); raw != nil || hdr.Cmd != cell.RelayRendezvousEstablished {
		t.Fatalf("no RENDEZVOUS_ESTABLISHED: %v", hdr.Cmd)
	}
	if r.lightRend.Len() != 1 {
		t.Fatalf("light rendezvous table has %d entries, want 1", r.lightRend.Len())
	}

	rv, _ := cell.EncodeControl(&cell.Rendezvous1Payload{Cookie: cookie, Reply: []byte("hs-reply")})
	svc.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayRendezvous1}, rv)
	hdr, data, raw := cli.readRelay(t)
	if raw != nil || hdr.Cmd != cell.RelayRendezvous2 {
		t.Fatalf("no RENDEZVOUS2 at client: %v", hdr.Cmd)
	}
	var rv2 cell.Rendezvous2Payload
	if err := cell.DecodeControl(data, &rv2); err != nil || !bytes.Equal(rv2.Reply, []byte("hs-reply")) {
		t.Fatalf("RENDEZVOUS2 reply mismatch: %q %v", rv2.Reply, err)
	}

	// End-to-end cell across the splice: sealed for the client under a
	// shared rendezvous layer the relay cannot recognize, wrapped in the
	// service's hop layer. The relay must strip the hop layer, fail
	// recognition, and continue the payload backward on the client
	// circuit.
	keys := make([]byte, otr.KeyMaterialLen)
	rand.Read(keys)
	sealL, _ := otr.NewLayer(keys)
	openL, _ := otr.NewLayer(keys)
	c := &cell.Cell{CircID: svc.circ, Cmd: cell.CmdRelay}
	if err := cell.PackRelay(c.Payload[:], cell.RelayHeader{Cmd: cell.RelayData, StreamID: 9}, []byte("over the splice")); err != nil {
		t.Fatal(err)
	}
	sealL.SealBackward(c.Payload[:], cell.DigestOffset)
	sealL.ApplyBackward(c.Payload[:])
	svc.layer.ApplyForward(c.Payload[:]) // hop layer only, no forward seal
	if err := cell.Write(svc.conn, c); err != nil {
		t.Fatal(err)
	}

	_, _, spliced := cli.readRelay(t)
	if spliced == nil {
		t.Fatal("spliced cell was recognized at the rendezvous point")
	}
	openL.ApplyBackward(spliced.Payload[:])
	if !cell.Recognized(spliced.Payload[:]) || !openL.VerifyBackward(spliced.Payload[:], cell.DigestOffset) {
		t.Fatal("end-to-end layer does not verify after the splice")
	}
	gotHdr, gotData, err := cell.ParseRelay(spliced.Payload[:])
	if err != nil || gotHdr.StreamID != 9 || !bytes.Equal(gotData, []byte("over the splice")) {
		t.Fatalf("spliced payload mismatch: %v %q %v", gotHdr, gotData, err)
	}

	// Teardown cleans the table via the direct key, not a sweep.
	cli.conn.Close()
	svc.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for r.lightRend.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous table not cleaned: %d", r.lightRend.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLightIngressDestroyPropagates kills the far relay of an extended
// light circuit and expects the DESTROY to reach the client.
func TestLightIngressDestroyPropagates(t *testing.T) {
	onOneP(t) // unpinned on 2 P: "timeout waiting for EXTENDED" in 28 of 120 runs, parent 4 of 10
	n, relays, cons := buildLightNet(t, 2)

	cliHost := n.AddHost("client", 0)
	client := torclient.New(cliHost, cons, 3)
	circ, err := client.BuildCircuit(cons.Relays[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	relays[1].Crash()
	select {
	case <-circ.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("circuit did not observe the far relay's death")
	}
}
