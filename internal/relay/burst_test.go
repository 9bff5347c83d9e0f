package relay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Ordering tests for the run datapath. Each test hands the relay a burst
// the way a loaded link does — many cells in one link write, so its
// deliver callback gets them as runs — and checks what the far side
// sees.

// seal returns the wire bytes of one relay cell addressed to the rig's
// relay. Cells must be sent in the order they are sealed.
func (rg *rig) seal(t *testing.T, hdr cell.RelayHeader, data []byte) []byte {
	t.Helper()
	c := &cell.Cell{CircID: rg.circ, Cmd: cell.CmdRelay}
	if err := cell.PackRelay(c.Payload[:], hdr, data); err != nil {
		t.Fatal(err)
	}
	rg.layer.SealForward(c.Payload[:], cell.DigestOffset)
	rg.layer.ApplyForward(c.Payload[:])
	return c.Marshal()
}

// opaque returns the wire bytes of a cell the rig's relay will not
// recognize: once the relay has peeled its layer the payload is exactly
// plain (whose recognized field is non-zero).
func (rg *rig) opaque(plain []byte) []byte {
	c := &cell.Cell{CircID: rg.circ, Cmd: cell.CmdRelay}
	copy(c.Payload[:], plain)
	rg.layer.ApplyForward(c.Payload[:])
	return c.Marshal()
}

// openStream sends BEGIN and waits for CONNECTED.
func (rg *rig) openStream(t *testing.T, id uint16, target string) {
	t.Helper()
	begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: target})
	rg.sendRelay(t, cell.RelayHeader{StreamID: id, Cmd: cell.RelayBegin}, begin)
	if hdr, _ := rg.readRelay(t); hdr.Cmd != cell.RelayConnected || hdr.StreamID != id {
		t.Fatalf("stream %d: got %v, want CONNECTED", id, hdr.Cmd)
	}
}

// collect accepts n connections on ln and returns, per connection, every
// byte it carried up to EOF.
func collect(ln net.Listener, n int) <-chan []byte {
	out := make(chan []byte, n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				b, _ := io.ReadAll(c)
				out <- b
			}()
		}
	}()
	return out
}

func recvWithin(t *testing.T, ch <-chan []byte, what string) []byte {
	t.Helper()
	select {
	case b := <-ch:
		return b
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// TestBurstDataThenEnd: DATA×k, END in one burst reaches the destination
// as all the bytes and then EOF — the gathered write is flushed before
// the END closes the stream.
func TestBurstDataThenEnd(t *testing.T) {
	rg := newRig(t, policy.AcceptAll())
	ln, err := rg.net.AddHost("dest", 0).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := collect(ln, 1)
	rg.openStream(t, 1, "dest:80")

	const k = 40 // 41 cells: one link write, runs of 16, 16 and 9
	var burst, want []byte
	for i := 0; i < k; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, cell.MaxRelayData-i)
		want = append(want, data...)
		burst = append(burst, rg.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data)...)
	}
	end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "done"})
	burst = append(burst, rg.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayEnd}, end)...)
	if _, err := rg.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if b := recvWithin(t, got, "the destination's EOF"); !bytes.Equal(b, want) {
		t.Fatalf("destination got %d bytes before EOF, want %d (or out of order)", len(b), len(want))
	}
}

// TestBurstTwoStreamsInterleaved: DATA of two streams interleaved in one
// burst arrives complete and in order on each.
func TestBurstTwoStreamsInterleaved(t *testing.T) {
	rg := newRig(t, policy.AcceptAll())
	ln, err := rg.net.AddHost("dest", 0).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := collect(ln, 2)
	rg.openStream(t, 1, "dest:80")
	rg.openStream(t, 2, "dest:80")

	var burst []byte
	want := map[uint16][]byte{}
	// Runs of one stream of every length from 1 to 5, alternating.
	id, seq := uint16(1), uint32(0)
	for runLen := 1; runLen <= 5; runLen++ {
		for rep := 0; rep < 2; rep++ {
			for i := 0; i < runLen; i++ {
				data := make([]byte, 8)
				data[0] = byte(id)
				binary.BigEndian.PutUint32(data[4:], seq)
				seq++
				want[id] = append(want[id], data...)
				burst = append(burst, rg.seal(t, cell.RelayHeader{StreamID: id, Cmd: cell.RelayData}, data)...)
			}
			id = 3 - id
		}
	}
	end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "done"})
	for id := uint16(1); id <= 2; id++ {
		burst = append(burst, rg.seal(t, cell.RelayHeader{StreamID: id, Cmd: cell.RelayEnd}, end)...)
	}
	if _, err := rg.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b := recvWithin(t, got, "a destination stream's EOF")
		if len(b) == 0 {
			t.Fatal("a stream carried nothing")
		}
		if id := uint16(b[0]); !bytes.Equal(b, want[id]) {
			t.Fatalf("stream %d: got %d bytes, want %d (or out of order)", id, len(b), len(want[id]))
		}
	}
}

// TestExtendThenCellsInOneBurst: cells for the new hop that ride the
// same burst as the EXTEND are forwarded after the CREATE, in order,
// none before and none lost.
func TestExtendThenCellsInOneBurst(t *testing.T) {
	rg := newRig(t, policy.AcceptAll())
	ln, err := rg.net.AddHost("next", 0).Listen(ORPort)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const n = 20
	plains := make([][]byte, n)
	for i := range plains {
		plains[i] = bytes.Repeat([]byte{byte(0x80 + i)}, cell.PayloadLen)
	}
	type seen struct {
		cmds    []cell.Command
		circIDs []uint32
		bodies  [][]byte
	}
	result := make(chan seen, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var s seen
		for len(s.cmds) < n+1 {
			cc, err := cell.Read(c)
			if err != nil {
				break
			}
			s.cmds = append(s.cmds, cc.Cmd)
			s.circIDs = append(s.circIDs, cc.CircID)
			s.bodies = append(s.bodies, append([]byte(nil), cc.Payload[:]...))
			if len(s.cmds) == 1 {
				cell.Write(c, &cell.Cell{CircID: cc.CircID, Cmd: cell.CmdCreated})
			}
		}
		result <- s
	}()

	ext, _ := cell.EncodeControl(&cell.ExtendPayload{Addr: "next:9001", Handshake: bytes.Repeat([]byte{7}, otr.PublicKeyLen)})
	burst := rg.seal(t, cell.RelayHeader{Cmd: cell.RelayExtend}, ext)
	for _, p := range plains {
		burst = append(burst, rg.opaque(p)...)
	}
	if _, err := rg.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if hdr, _ := rg.readRelay(t); hdr.Cmd != cell.RelayExtended {
		t.Fatalf("got %v, want EXTENDED", hdr.Cmd)
	}
	var s seen
	select {
	case s = <-result:
	case <-time.After(20 * time.Second):
		t.Fatal("next hop never saw the burst")
	}
	if len(s.cmds) != n+1 || s.cmds[0] != cell.CmdCreate {
		t.Fatalf("next hop saw %d cells starting with %v, want CREATE then %d cells", len(s.cmds), s.cmds[0], n)
	}
	for i := 1; i <= n; i++ {
		if s.cmds[i] != cell.CmdRelay || s.circIDs[i] != s.circIDs[0] || !bytes.Equal(s.bodies[i], plains[i-1]) {
			t.Fatalf("forwarded cell %d: %v on circuit %#x, wrong command, circuit or payload", i, s.cmds[i], s.circIDs[i])
		}
	}
}

// TestIdleCircuitHoldsNoBurst: once traffic stops, an established
// circuit with an open stream holds nothing for it: no dial state, no
// cells waiting behind one, no bytes in its links' backlogs.
func TestIdleCircuitHoldsNoBurst(t *testing.T) {
	rg := newRig(t, policy.AcceptAll())
	ln, err := rg.net.AddHost("dest", 0).Listen(80)
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
	rg.openStream(t, 1, "dest:80")

	const k = 60
	var burst []byte
	data := bytes.Repeat([]byte{0x5A}, cell.MaxRelayData)
	for i := 0; i < k; i++ {
		burst = append(burst, rg.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data)...)
	}
	if _, err := rg.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for echoed := 0; echoed < k*len(data); {
		hdr, d := rg.readRelay(t)
		if hdr.Cmd != cell.RelayData {
			t.Fatalf("got %v, want echoed DATA", hdr.Cmd)
		}
		echoed += len(d)
	}
	// The circuit and its stream are still up; nothing is moving.
	if len(circuitsOf(rg.relay)) != 1 {
		t.Fatalf("relay serves %d circuits, want the idle circuit", len(circuitsOf(rg.relay)))
	}
	c := theCircuit(t, rg.relay, func(*circuit) bool { return true })
	eventually(t, "the idle circuit to hold nothing", func() bool { return held(c) == 0 })
	if d := dialState(c); d != nil {
		t.Fatalf("idle circuit holds a dial to %s with %d bytes behind it", d.target, len(d.rest))
	}
}

// TestDestroyWaitsBehindDial: a DESTROY in the delivery that met a BEGIN
// or an EXTEND is handled after the cells between them, in the order they
// arrived: the destination gets the DATA, and the next hop the relay cell,
// before the circuit closes.
func TestDestroyWaitsBehindDial(t *testing.T) {
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		t.Run("begin", func(t *testing.T) {
			rg := newRigOn(t, newNet(), policy.AcceptAll())
			ln, err := rg.net.AddHost("dest", 0).Listen(80)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := collect(ln, 1)
			begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "dest:80"})
			burst := rg.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}, begin)
			burst = append(burst, rg.seal(t, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, []byte("before the close"))...)
			destroy := (&cell.Cell{CircID: rg.circ, Cmd: cell.CmdDestroy}).Marshal()
			if _, err := rg.conn.Write(append(burst, destroy[:]...)); err != nil {
				t.Fatal(err)
			}
			if b := recvWithin(t, got, "the destination's bytes"); string(b) != "before the close" {
				t.Fatalf("destination got %q before its close", b)
			}
		})
		t.Run("extend", func(t *testing.T) {
			rg := newRigOn(t, newNet(), policy.AcceptAll())
			ln, err := rg.net.AddHost("next", 0).Listen(ORPort)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			plain := bytes.Repeat([]byte{0x5a}, cell.PayloadLen)
			seen := make(chan []byte, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				var log []byte // each cell's command, and 1 for a relay cell carrying plain
				for {
					cc, err := cell.Read(c)
					if err != nil {
						break
					}
					log = append(log, byte(cc.Cmd))
					if cc.Cmd == cell.CmdRelay && bytes.Equal(cc.Payload[:], plain) {
						log = append(log, 1)
					}
				}
				seen <- log
			}()
			ext, _ := cell.EncodeControl(&cell.ExtendPayload{Addr: fmt.Sprintf("next:%d", ORPort), Handshake: bytes.Repeat([]byte{7}, otr.PublicKeyLen)})
			burst := append(rg.seal(t, cell.RelayHeader{Cmd: cell.RelayExtend}, ext), rg.opaque(plain)...)
			destroy := (&cell.Cell{CircID: rg.circ, Cmd: cell.CmdDestroy}).Marshal()
			if _, err := rg.conn.Write(append(burst, destroy[:]...)); err != nil {
				t.Fatal(err)
			}
			want := []byte{byte(cell.CmdCreate), byte(cell.CmdRelay), 1, byte(cell.CmdDestroy)}
			if log := recvWithin(t, seen, "the next hop's cells"); !bytes.Equal(log, want) {
				t.Fatalf("next hop saw %v, want CREATE, the relay cell, DESTROY (%v)", log, want)
			}
		})
	})
}
