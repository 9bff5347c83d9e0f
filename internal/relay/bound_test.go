package relay

import (
	"bytes"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Tests of the one hop-level bound (ingress.go): for each kind of egress
// a circuit writes — the next hop, the client link, an exit destination,
// a joined circuit's client link — a sender faster than the relay's
// capped uplink is stalled, the circuit survives and delivers everything,
// and what the relay holds for the circuit stays under maxSpillCells
// cells. What the relay holds is what it has written and its peers have
// not taken (the links' backlogs); receive buffers are the network's,
// bounded by simnet's own flow control.

const (
	// boundRate is the relay's uplink in the bound tests, bytes per
	// virtual second: far below what an uncapped sender pushes, and on
	// the wall-backed test clock (0.001) below what the relay's crypto
	// keeps up with even under -race, so the uplink is what limits.
	// (32 KiB/s went unstalled under -race.)
	boundRate = 4 << 10
	// boundCells is what each test moves through the capped uplink: four
	// times the high-water mark.
	boundCells = 4 * spillHighWater
	// boundBytes is the bound itself.
	boundBytes = maxSpillCells * cell.Size
)

// cappedRelay starts an exit relay on a host whose uplink is boundRate.
func cappedRelay(t *testing.T, n *simnet.Network) *Relay {
	t.Helper()
	r, err := New(n.AddHost("relay0", boundRate), Config{
		Nickname:   "relay0",
		Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit},
		ExitPolicy: policy.AcceptAll(),
		Quiet:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	track(t, r)
	t.Cleanup(func() { r.Close() })
	return r
}

// held is what the relay holds for c: the backlogs of its links, and the
// cells waiting behind a dial.
func held(c *circuit) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.conn.Backlog()
	if c.dial != nil {
		n += len(c.dial.rest)
	}
	if c.next != nil {
		n += c.next.Backlog()
	}
	for _, s := range c.streams {
		n += s.Backlog()
	}
	return n
}

// watchPeak samples f until the test ends and reports the largest value
// seen so far.
func watchPeak(t *testing.T, f func() int) func() int {
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if v := int64(f()); v > peak.Load() {
				peak.Store(v)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
	return func() int { return int(peak.Load()) }
}

// sinkOn serves one connection on h:port, reading and counting every
// byte; with hold set it reads nothing and only keeps the connection.
func sinkOn(t *testing.T, h *simnet.Host, port int, hold bool) *atomic.Int64 {
	t.Helper()
	ln, err := h.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var got atomic.Int64
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { c.Close() })
		if hold {
			return
		}
		buf := make([]byte, 32<<10)
		for {
			k, err := c.Read(buf)
			got.Add(int64(k))
			if err != nil {
				return
			}
		}
	}()
	return &got
}

// flood writes cells to conn, 64 a time, on a goroutine of its own, and
// counts what has been written.
func flood(conn io.Writer, cells []byte) *atomic.Int64 {
	var sent atomic.Int64
	go func() {
		for off := 0; off < len(cells); {
			k := min(64*cell.Size, len(cells)-off)
			if _, err := conn.Write(cells[off : off+k]); err != nil {
				return
			}
			off += k
			sent.Add(int64(k))
		}
	}()
	return &sent
}

// checkBound is the common verdict: the circuit is up, it was stalled,
// and it never held more than the bound.
func checkBound(t *testing.T, r *Relay, c *circuit, stalls int64, peak int) {
	t.Helper()
	if c.destroyed.Load() {
		t.Fatal("the bound killed the circuit")
	}
	if r.m.stalls.Value() == stalls {
		t.Fatal("a sender faster than the capped uplink was never stalled")
	}
	if peak > boundBytes {
		t.Fatalf("the relay held %d bytes for the circuit, bound %d", peak, boundBytes)
	}
	t.Logf("peak held %d bytes (bound %d), %d stalls", peak, boundBytes, r.m.stalls.Value()-stalls)
}

func opaqueCells(rg *rig, n int) []byte {
	plain := bytes.Repeat([]byte{0x80}, cell.PayloadLen)
	out := make([]byte, 0, n*cell.Size)
	for i := 0; i < n; i++ {
		out = append(out, rg.opaque(plain)...)
	}
	return out
}

// TestBoundNextHop: cells past the relay, toward a next hop behind the
// capped uplink.
func TestBoundNextHop(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		n := newNet()
		r := cappedRelay(t, n)
		ln, err := n.AddHost("next", 0).Listen(ORPort)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		var got atomic.Int64
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			create, err := cell.Read(c)
			if err != nil {
				return
			}
			cell.Write(c, &cell.Cell{CircID: create.CircID, Cmd: cell.CmdCreated})
			buf := make([]byte, 32<<10)
			for {
				k, err := c.Read(buf)
				got.Add(int64(k))
				if err != nil {
					return
				}
			}
		}()
		rg := dial(t, n, r, "client", 7)
		ext, _ := cell.EncodeControl(&cell.ExtendPayload{Addr: "next:9001", Handshake: bytes.Repeat([]byte{7}, otr.PublicKeyLen)})
		rg.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayExtend}, ext)
		if hdr, _ := rg.readRelay(t); hdr.Cmd != cell.RelayExtended {
			t.Fatalf("got %v, want EXTENDED", hdr.Cmd)
		}
		c := theCircuit(t, r, func(c *circuit) bool { return c.circID == rg.circ })
		peak := watchPeak(t, func() int { return held(c) })
		stalls := r.m.stalls.Value()

		flood(rg.conn, opaqueCells(rg, boundCells))
		eventually(t, "the next hop to see every cell", func() bool { return got.Load() == boundCells*cell.Size })
		checkBound(t, r, c, stalls, peak())
	})
}

// TestBoundExitDestination: DATA out of an exit, toward a destination
// behind the capped uplink.
func TestBoundExitDestination(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		n := newNet()
		r := cappedRelay(t, n)
		got := sinkOn(t, n.AddHost("dest", 0), 80, false)
		rg := dial(t, n, r, "client", 7)
		rg.openStream(t, 1, "dest:80")
		c := theCircuit(t, r, func(c *circuit) bool { return c.circID == rg.circ })
		peak := watchPeak(t, func() int { return held(c) })
		stalls := r.m.stalls.Value()

		data := bytes.Repeat([]byte{0x5A}, cell.MaxRelayData)
		cells := make([]byte, 0, boundCells*cell.Size)
		for i := 0; i < boundCells; i++ {
			cells = append(cells, rg.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data)...)
		}
		flood(rg.conn, cells)
		eventually(t, "the destination to get every byte", func() bool { return got.Load() == boundCells*cell.MaxRelayData })
		checkBound(t, r, c, stalls, peak())
	})
}

// TestBoundClientLink: a destination's bytes back toward a client behind
// the capped uplink.
func TestBoundClientLink(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		n := newNet()
		r := cappedRelay(t, n)
		ln, err := n.AddHost("dest", 0).Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		const total = boundCells * cell.MaxRelayData
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.Write(bytes.Repeat([]byte{0xA5}, total))
			io.Copy(io.Discard, c)
		}()
		rg := dial(t, n, r, "client", 7)
		c := theCircuit(t, r, func(c *circuit) bool { return c.circID == rg.circ })
		peak := watchPeak(t, func() int { return held(c) })
		stalls := r.m.stalls.Value()
		rg.openStream(t, 1, "dest:80")

		for got := 0; got < total; {
			hdr, data := rg.readRelay(t)
			if hdr.Cmd != cell.RelayData {
				t.Fatalf("got %v after %d bytes, want DATA", hdr.Cmd, got)
			}
			got += len(data)
		}
		checkBound(t, r, c, stalls, peak())
	})
}

// TestBoundRendezvousSplice: cells across a splice, toward the joined
// circuit's client behind the capped uplink.
func TestBoundRendezvousSplice(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		n := newNet()
		r := cappedRelay(t, n)
		cli := dial(t, n, r, "cli", 11)
		svc := dial(t, n, r, "svc", 22)
		cookie := bytes.Repeat([]byte{0xA7}, 20)
		est, _ := cell.EncodeControl(&cell.EstablishRendezvousPayload{Cookie: cookie})
		cli.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayEstablishRendezvous}, est)
		if hdr, _ := cli.readRelay(t); hdr.Cmd != cell.RelayRendezvousEstablished {
			t.Fatalf("no RENDEZVOUS_ESTABLISHED: %v", hdr.Cmd)
		}
		rv, _ := cell.EncodeControl(&cell.Rendezvous1Payload{Cookie: cookie, Reply: []byte("hs-reply")})
		svc.sendRelay(t, cell.RelayHeader{Cmd: cell.RelayRendezvous1}, rv)
		if hdr, _ := cli.readRelay(t); hdr.Cmd != cell.RelayRendezvous2 {
			t.Fatalf("no RENDEZVOUS2: %v", hdr.Cmd)
		}
		cc := theCircuit(t, r, func(c *circuit) bool { return c.circID == cli.circ })
		sc := theCircuit(t, r, func(c *circuit) bool { return c.circID == svc.circ })
		peak := watchPeak(t, func() int { return held(cc) + held(sc) })
		stalls := r.m.stalls.Value()

		flood(svc.conn, opaqueCells(svc, boundCells))
		for got := 0; got < boundCells; got++ {
			if _, _, raw := cli.readCell(t); raw == nil || raw.Cmd != cell.CmdRelay {
				t.Fatalf("cell %d across the splice: not an end-to-end relay cell", got)
			}
		}
		checkBound(t, r, sc, stalls, peak())
		if cc.destroyed.Load() {
			t.Fatal("the bound killed the joined circuit")
		}
	})
}

// TestBoundDestinationStopsReading: an exit destination that stops
// reading stalls its own circuit and nothing else — a sibling circuit on
// the same relay still gets its echo. (With a worker pool, a worker
// blocked writing to the destination stalled every circuit hashed to it;
// New sized the pool by GOMAXPROCS, so one worker here.)
func TestBoundDestinationStopsReading(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		n := newNet()
		if eventDriven(n) {
			onOneP(t) // unpinned on 2 P: "read: i/o timeout" at the sibling's BEGIN in 15 of 50 runs
		}
		prev := runtime.GOMAXPROCS(1)
		relays, _ := buildNet(t, n, 1)
		runtime.GOMAXPROCS(prev)
		r := relays[0]
		sinkOn(t, n.AddHost("sink", 0), 80, true)
		echoOn(t, n.AddHost("dest", 0))

		victim := dial(t, n, r, "victim", 51)
		victim.openStream(t, 1, "sink:80")
		c := theCircuit(t, r, func(c *circuit) bool { return c.circID == 51 })
		peak := watchPeak(t, func() int { return held(c) })
		// More than every buffer on the way can take: the stalled egress,
		// the destination's and the relay's receive buffers, the victim's
		// send window.
		const total = 4 * boundCells
		data := bytes.Repeat([]byte{0x5A}, cell.MaxRelayData)
		cells := make([]byte, 0, total*cell.Size)
		for i := 0; i < total; i++ {
			cells = append(cells, victim.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data)...)
		}
		sent := flood(victim.conn, cells)
		// The sender stalls: nothing more goes out for a while.
		for last := int64(-1); ; time.Sleep(50 * time.Millisecond) {
			if s := sent.Load(); s == last {
				break
			} else {
				last = s
			}
		}
		if sent.Load() == total*cell.Size {
			t.Fatal("the victim got every cell out to a destination that reads nothing")
		}

		sibling := dial(t, n, r, "sibling", 52)
		sibling.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		sibling.openStream(t, 1, "dest:80")
		sibling.sendRelay(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, []byte("still here"))
		if hdr, data := sibling.readRelay(t); hdr.Cmd != cell.RelayData || string(data) != "still here" {
			t.Fatalf("sibling echo: got %v %q", hdr.Cmd, data)
		}
		if c.destroyed.Load() {
			t.Fatal("the stalled circuit was killed")
		}
		if p := peak(); p > boundBytes {
			t.Fatalf("the relay held %d bytes for the stalled circuit, bound %d", p, boundBytes)
		}
		victim.conn.Close()
	})
}

// TestSeverDuringStall: a host crash reaches a feed the circuit has
// paused. "stream": the client stops reading, the destination's replies
// stall the stream's feed, and the destination's host crashes; once the
// client reads again it gets the replies the relay took, then END.
// "dial": the client's host crashes while its link is paused for an
// EXTEND's dial to a next hop that never answers; the dial's callback
// resumes the link, which hands it the EOF, and the circuit is torn down.
// (A sever used to close a paused endpoint with its EOF owed to no
// callback, and the resumed callback never saw it.)
func TestSeverDuringStall(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		t.Run("stream", func(t *testing.T) {
			n := newNet()
			if eventDriven(n) {
				onOneP(t) // unpinned on 2 P: "read: i/o timeout" at the first reply in 50 of 50 runs
			}
			ch := n.EnableChaos(1)
			rg := newRigOn(t, n, policy.AcceptAll())
			ln, err := n.AddHost("dest", 0).Listen(80)
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
				for buf := make([]byte, 32<<10); ; {
					if _, err := c.Write(buf); err != nil {
						return // the crash
					}
				}
			}()
			stalls := rg.relay.m.stalls.Value()
			rg.openStream(t, 1, "dest:80")
			eventually(t, "the replies to stall the stream", func() bool { return rg.relay.m.stalls.Value() > stalls })
			ch.CrashHost("dest")

			rg.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			got := 0
			for {
				hdr, data := rg.readRelay(t)
				if hdr.StreamID != 1 || hdr.Cmd != cell.RelayData && hdr.Cmd != cell.RelayEnd {
					t.Fatalf("got %v for stream %d, want DATA or END for stream 1", hdr.Cmd, hdr.StreamID)
				}
				if hdr.Cmd == cell.RelayEnd {
					break
				}
				got += len(data)
			}
			t.Logf("%d bytes of replies, then END", got)
		})
		t.Run("dial", func(t *testing.T) {
			n := newNet()
			ch := n.EnableChaos(1)
			n.SetDelay("relay0", "blackhole", 1000*time.Second) // a long round trip to crash in
			rg := newRigOn(t, n, policy.AcceptAll())
			silentListener(t, n.AddHost("blackhole", 0))
			c := theCircuit(t, rg.relay, func(c *circuit) bool { return c.circID == rg.circ })
			ext, _ := cell.EncodeControl(&cell.ExtendPayload{Addr: "blackhole:9001", Handshake: bytes.Repeat([]byte{7}, otr.PublicKeyLen)})
			sealed := rg.seal(t, cell.RelayHeader{Cmd: cell.RelayExtend}, ext)
			var dialing atomic.Bool
			// A simulation goroutine, so virtual time waits for its write.
			n.Clock().Go(func() {
				rg.conn.Write(sealed)
				n.Clock().Sleep(500 * time.Second)
				d := dialState(c)
				dialing.Store(d != nil && d.started)
				ch.CrashHost("client")
			})
			eventually(t, "the circuit's teardown", func() bool { return len(circuitsOf(rg.relay)) == 0 })
			if !dialing.Load() {
				t.Fatal("the client's host crashed outside the EXTEND's dial")
			}
		})
	})
}
