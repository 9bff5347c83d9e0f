package relay

import (
	"testing"
	"unsafe"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
)

// TestMiddleHopForwardAllocFree locks in the zero-allocation contract of
// the steady-state middle-hop forward path: a delivered cell reassembled
// in place, one keystream layer peeled, recognition failed (with digest
// rollback), the circuit ID restamped, WriteAsync to the next hop, and
// the egress bound's backlog check. The acceptance bar for the datapath
// is exactly 0 here.
//
// The cycle runs with live telemetry attached — a real registry's
// per-cell counters — because the observability layer's own contract is
// that instrumentation never costs an allocation on the datapath.
func TestMiddleHopForwardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
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

	r := &Relay{cfg: Config{Quiet: true}, m: newRelayMetrics(obs.NewRegistry())}
	c := &circuit{relay: r, conn: discardLink{}, next: discardLink{}}
	c.establish(100, middle)
	c.extended, c.nextCircID = true, 200

	out := make([]byte, cell.Size) // client's send buffer
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

		// Middle hop: the client link's deliver callback on the lent chunk.
		c.onDeliver(out, false)
	}

	for i := 0; i < 8; i++ {
		cycle() // warm up digest scratch
	}
	recognized := r.m.recognized.Value()
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("middle-hop forward path allocates %.2f times per cell, want 0", allocs)
	}
	if r.m.fwdCells.Value() == 0 || r.m.recognized.Value() != recognized || c.destroyed.Load() {
		t.Fatal("the cells were not forwarded past the middle hop")
	}
}

// TestCircuitSizeofPinned pins what one circuit costs — one allocation —
// at or below 192 B: every cell a hop originates is packed, sealed and
// written in a pooled run (circuit.originate), so no circuit holds a frame
// of its own, and the relay keeps no table of its circuits. The scale
// run's bytes per host is made of these.
func TestCircuitSizeofPinned(t *testing.T) {
	if got := unsafe.Sizeof(circuit{}); got > 192 {
		t.Fatalf("sizeof(circuit) = %d, want <= 192", got)
	}
	t.Logf("circuit %d B", unsafe.Sizeof(circuit{}))
}
