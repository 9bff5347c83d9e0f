package relay

import (
	"net"
	"testing"
	"time"
	"unsafe"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
)

// discardConn is a net.Conn that swallows writes, standing in for the
// next-hop link when measuring the forwarding path in isolation.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)       { select {} }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestMiddleHopForwardAllocFree locks in the zero-allocation contract of
// the steady-state middle-hop forward path: read a frame, peel one
// keystream layer in place, fail recognition (with digest rollback),
// restamp the circuit ID, and enqueue on the batched next-hop writer.
// The acceptance bar for the datapath refactor is exactly 0 here.
//
// The cycle runs with live telemetry attached — a real registry's
// per-cell counters plus the BatchWriter flush-size histogram and a
// tracing sink — because the observability layer's own contract is that
// instrumentation never costs an allocation on the datapath.
func TestMiddleHopForwardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	reg := obs.NewRegistry()
	m := newRelayMetrics(reg)
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i*11 + 3)
	}
	keys2 := make([]byte, otr.KeyMaterialLen)
	for i := range keys2 {
		keys2[i] = byte(i*13 + 5)
	}
	// Client layers for a 2-hop circuit; the middle relay holds hop 0's.
	cl0, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	cl1, err := otr.NewLayer(keys2)
	if err != nil {
		t.Fatal(err)
	}
	middle, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	clientLayers := []*otr.Layer{cl0, cl1}

	w := cell.NewBatchWriterObs(discardConn{}, m.flush)
	defer w.Close()

	out := make([]byte, cell.Size)  // client's send buffer
	wire := make([]byte, cell.Size) // middle hop's per-link read buffer
	data := make([]byte, cell.MaxRelayData)
	hdr := cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}

	cycle := func() {
		// Client: pack + onion-encrypt for hop 1.
		payload := cell.WirePayload(out)
		if err := cell.PackRelay(payload, hdr, data); err != nil {
			t.Fatal(err)
		}
		otr.OnionEncrypt(clientLayers, 1, payload, cell.DigestOffset)
		cell.SetWireCircID(out, 100)
		cell.SetWireCmd(out, cell.CmdRelay)

		// Middle hop: the handleRelay forwarding path on the read buffer,
		// including the per-cell metric updates the live path performs.
		copy(wire, out)
		p := cell.WirePayload(wire)
		middle.ApplyForward(p)
		if cell.Recognized(p) && middle.VerifyForward(p, cell.DigestOffset) {
			t.Fatal("middle hop recognized a cell addressed past it")
		}
		cell.SetWireCircID(wire, 200)
		m.fwdCells.Inc()
		if err := w.WriteFrame(wire); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 8; i++ {
		cycle() // warm up digest scratch and the writer's batch buffers
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("middle-hop forward path allocates %.2f times per cell, want 0", allocs)
	}
	if m.fwdCells.Value() == 0 || m.flush.Count() == 0 {
		t.Fatal("live instrumentation did not record the forwarded cells")
	}
}

// TestCircuitSizeofPinned pins what one circuit costs on the light
// transport — the shared state machine plus the light adapter's own state,
// one allocation — at the 744 B the light-only circuit took before the two
// implementations were merged (514 of it the inline backward scratch
// frame). Spill queues, batch scratch and BatchWriters belong to the
// goroutine transport's goLink and must not leak into circuit: the scale
// run's bytes per host is made of these.
func TestCircuitSizeofPinned(t *testing.T) {
	if got := unsafe.Sizeof(lightLink{}); got > 744 {
		t.Fatalf("sizeof(lightLink) = %d, want <= 744", got)
	}
	if c, g := unsafe.Sizeof(circuit{}), unsafe.Sizeof(goLink{}); g-c < unsafe.Sizeof(spillQueue{}) {
		t.Fatalf("sizeof(circuit) = %d against sizeof(goLink) = %d: the spill queues are not where they belong", c, g)
	}
	t.Logf("circuit %d B, lightLink %d B, goLink %d B", unsafe.Sizeof(circuit{}), unsafe.Sizeof(lightLink{}), unsafe.Sizeof(goLink{}))
}
