package relay

import (
	"net"
	"testing"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

// hangUpServerOn answers every connection to h:80 with one byte and
// closes it — the destination that could get its END (goroutine
// transport: the reader was started first) or its DATA and END (light
// transport: the callback was installed first) onto the circuit before
// CONNECTED.
func hangUpServerOn(t *testing.T, h *simnet.Host) {
	t.Helper()
	ln, err := h.Listen(80)
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
				c.Write([]byte{'!'})
				c.Close()
			}(c)
		}
	}()
}

// TestConnectedPrecedesDataAndEnd opens streams to a destination that
// writes one byte and hangs up, on both relay transports, and requires
// the exit to answer each BEGIN with CONNECTED, DATA("!"), END in that
// order. The destination sits on the relay's own host (zero delay, like
// a co-resident Bento server, where the overtaking was seen). The old
// order lost a goroutine-start race only rarely, so this pins the
// behaviour rather than reproducing the bug on demand.
func TestConnectedPrecedesDataAndEnd(t *testing.T) {
	const streams = 40
	begin, err := cell.EncodeControl(&cell.BeginPayload{Target: "localhost:80"})
	if err != nil {
		t.Fatal(err)
	}
	forEachTransport(t, func(t *testing.T, newNet func() *simnet.Network) {
		rg := newRigOn(t, newNet(), policy.AcceptAll())
		hangUpServerOn(t, rg.relay.Host())
		for id := uint16(1); id <= streams; id++ {
			rg.sendRelay(t, cell.RelayHeader{StreamID: id, Cmd: cell.RelayBegin}, begin)
			want := []cell.RelayCommand{cell.RelayConnected, cell.RelayData, cell.RelayEnd}
			for i, cmd := range want {
				hdr, data := rg.readRelay(t)
				if hdr.Cmd != cmd || hdr.StreamID != id {
					t.Fatalf("stream %d, reply %d: got %v for stream %d, want %v", id, i, hdr.Cmd, hdr.StreamID, cmd)
				}
				if cmd == cell.RelayData && string(data) != "!" {
					t.Fatalf("stream %d: DATA carried %q, want \"!\"", id, data)
				}
			}
		}
	})
}
