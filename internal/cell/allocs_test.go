package cell_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
)

// ringReader serves the same frame forever, so read loops can be driven
// without touching a real connection.
type ringReader struct {
	frame []byte
	off   int
}

func (r *ringReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func newTestLayers(t *testing.T) (sender, receiver *otr.Layer) {
	t.Helper()
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i * 7)
	}
	sender, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err = otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	return sender, receiver
}

// TestEncodeEncryptDecodeAllocFree locks in the zero-allocation contract
// of the client→exit datapath: pack a relay cell into a reused wire
// frame, seal and encrypt in place, put it on the wire, read it back
// into a reused frame, decrypt, verify, and parse — zero allocations per
// cell in the steady state.
func TestEncodeEncryptDecodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	sender, receiver := newTestLayers(t)
	data := bytes.Repeat([]byte{0xAB}, cell.MaxRelayData)
	hdr := cell.RelayHeader{StreamID: 7, Cmd: cell.RelayData}

	out := make([]byte, cell.Size)
	in := make([]byte, cell.Size)
	ring := &ringReader{frame: out}

	cycle := func() {
		// Encode + encrypt (the client's sendLocked).
		payload := cell.WirePayload(out)
		if err := cell.PackRelay(payload, hdr, data); err != nil {
			t.Fatal(err)
		}
		sender.SealForward(payload, cell.DigestOffset)
		sender.ApplyForward(payload)
		cell.SetWireCircID(out, 42)
		cell.SetWireCmd(out, cell.CmdRelay)

		// Wire + decode + decrypt (the exit's serveConn loop).
		ring.off = 0
		if err := cell.ReadWire(ring, in); err != nil {
			t.Fatal(err)
		}
		rp := cell.WirePayload(in)
		receiver.ApplyForward(rp)
		if !cell.Recognized(rp) || !receiver.VerifyForward(rp, cell.DigestOffset) {
			t.Fatal("cell not recognized")
		}
		if _, _, err := cell.ParseRelay(rp); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 4; i++ {
		cycle() // warm up digest scratch buffers
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("encode→encrypt→decode allocates %.1f times per cell, want 0", allocs)
	}
}

// TestWriteToAllocFree locks in that the pooled single-write codec for
// Cell values does not allocate after pool warmup.
func TestWriteToAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := &cell.Cell{CircID: 9, Cmd: cell.CmdRelay}
	for i := 0; i < 4; i++ {
		if _, err := c.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteTo allocates %.1f times per cell, want 0", allocs)
	}
}

// TestReadIntoAllocFree locks in the alloc-free read path for Cell values.
func TestReadIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	src := &cell.Cell{CircID: 3, Cmd: cell.CmdRelay}
	ring := &ringReader{frame: src.Marshal()}
	var c cell.Cell
	for i := 0; i < 4; i++ {
		if err := cell.ReadInto(ring, &c); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cell.ReadInto(ring, &c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadInto allocates %.1f times per cell, want 0", allocs)
	}
	if c.CircID != 3 || c.Cmd != cell.CmdRelay {
		t.Fatal("ReadInto corrupted the cell")
	}
}

// burstRing serves the same frame forever and reports whole frames as
// already delivered: a saturated link as cell.ReadRun sees one.
type burstRing struct {
	ringReader
	held int // bytes Buffered reports
}

func (r *burstRing) Buffered() int { return r.held }

// TestReadRunAllocFree: the reassembler is on the path of every cell a
// link reader takes and must not allocate once the pools are warm,
// for a lone cell and for a full run.
func TestReadRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	src := &cell.Cell{CircID: 3, Cmd: cell.CmdRelay}
	ring := &burstRing{ringReader: ringReader{frame: src.Marshal()}}
	first := make([]byte, cell.Size)
	cycle := func() {
		for _, held := range []int{0, 40 * cell.Size} {
			ring.held = held
			run, err := cell.ReadRun(ring, first)
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + min(held/cell.Size, cell.BurstCells-1); run.N != want {
				t.Fatalf("run of %d cells, want %d", run.N, want)
			}
			cell.PutBurst(run)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("ReadRun allocates %.2f times per two runs, want 0", allocs)
	}
}
