package torclient

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// serviceRig is the service side of a rendezvous circuit built by hand:
// two hops on a guard link and the service layer attached. The test keeps
// its own copies of every layer, made from the same keys, and plays with
// them the relays and the connecting client.
type serviceRig struct {
	circ     *Circuit
	far      simnet.LightConn // the guard's end of the link
	hops     []*otr.Layer     // the relays' ends of the hop layers
	svc      *otr.Layer       // the connecting client's end of the service layer
	accepted chan net.Conn
}

// layerKeys is the key material of a test layer, one per seed.
func layerKeys(seed byte) []byte {
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i*7) + seed
	}
	return keys
}

func layerFrom(t *testing.T, seed byte) *otr.Layer {
	t.Helper()
	l, err := otr.NewLayer(layerKeys(seed))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newServiceRig(t *testing.T) *serviceRig {
	t.Helper()
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	circ, far := newLinkCircuit(t, n, 0, layerFrom(t, 1))
	circ.layers = append(circ.layers, layerFrom(t, 2))
	rig := &serviceRig{
		circ:     circ,
		far:      far,
		hops:     []*otr.Layer{layerFrom(t, 1), layerFrom(t, 2)},
		svc:      layerFrom(t, 9),
		accepted: make(chan net.Conn, 1),
	}
	if err := circ.AttachServiceLayer(layerKeys(9), func(c net.Conn) { rig.accepted <- c }); err != nil {
		t.Fatal(err)
	}
	return rig
}

// frame packs a relay cell for the rig's circuit, lets seal address it,
// and returns the wire frame.
func (r *serviceRig) frame(t *testing.T, hdr cell.RelayHeader, data []byte, seal func(p []byte)) []byte {
	t.Helper()
	frame := make([]byte, cell.Size)
	p := cell.WirePayload(frame)
	if err := cell.PackRelay(p, hdr, data); err != nil {
		t.Fatal(err)
	}
	seal(p)
	cell.SetWireCircID(frame, r.circ.circID)
	cell.SetWireCmd(frame, cell.CmdRelay)
	return frame
}

// toService is a cell the connecting client sends to the service layer,
// as it reaches the guard link: sealed and encrypted forward at the
// service layer, then given each hop's backward layer, the far hop's
// first.
func (r *serviceRig) toService(t *testing.T, hdr cell.RelayHeader, data []byte) []byte {
	return r.frame(t, hdr, data, func(p []byte) {
		r.svc.SealForward(p, cell.DigestOffset)
		r.svc.ApplyForward(p)
		for i := len(r.hops) - 1; i >= 0; i-- {
			r.hops[i].ApplyBackward(p)
		}
	})
}

// fromLastHop is a cell the last hop originates toward the service.
func (r *serviceRig) fromLastHop(t *testing.T, hdr cell.RelayHeader, data []byte) []byte {
	return r.frame(t, hdr, data, func(p []byte) {
		last := len(r.hops) - 1
		r.hops[last].SealBackward(p, cell.DigestOffset)
		for i := last; i >= 0; i-- {
			r.hops[i].ApplyBackward(p)
		}
	})
}

// fromService is the per-cell reference for a cell the service
// originates: sealed and encrypted backward at the service layer (the
// service is that layer's relay side), then given each hop's forward
// keystream, the far hop's first — one cell at a time.
func (r *serviceRig) fromService(t *testing.T, hdr cell.RelayHeader, data []byte) []byte {
	return r.frame(t, hdr, data, func(p []byte) {
		r.svc.SealBackward(p, cell.DigestOffset)
		r.svc.ApplyBackward(p)
		for i := len(r.hops) - 1; i >= 0; i-- {
			r.hops[i].ApplyForward(p)
		}
	})
}

func (r *serviceRig) ctrlQueued() int {
	r.circ.ctrlMu.Lock()
	defer r.circ.ctrlMu.Unlock()
	return len(r.circ.ctrlq)
}

// TestServiceStreamWire: a stream a rendezvous client opens at the
// service layer is an ordinary entry of the circuit's stream table, and
// what the service sends on it takes the circuit's one origination path.
// Its CONNECTED, a Write of 40 full cells (three runs) and its END reach
// the guard link byte for byte as the per-cell reference seals them.
func TestServiceStreamWire(t *testing.T) {
	rig := newServiceRig(t)
	begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "svc:80"})
	rig.circ.onDeliver(rig.toService(t, cell.RelayHeader{StreamID: 5, Cmd: cell.RelayBegin}, begin), false)
	var s net.Conn
	select {
	case s = <-rig.accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("the acceptor never got the stream")
	}

	data := make([]byte, 40*cell.MaxRelayData)
	for i := range data {
		data[i] = byte(i * 31)
	}
	want := rig.fromService(t, cell.RelayHeader{StreamID: 5, Cmd: cell.RelayConnected}, nil)
	for p := data; len(p) > 0; p = p[cell.MaxRelayData:] {
		want = append(want, rig.fromService(t, cell.RelayHeader{StreamID: 5, Cmd: cell.RelayData}, p[:cell.MaxRelayData])...)
	}
	end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "closed"})
	want = append(want, rig.fromService(t, cell.RelayHeader{StreamID: 5, Cmd: cell.RelayEnd}, end)...)

	got := make([]byte, len(want))
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(rig.far, got)
		read <- err
	}()
	if n, err := s.Write(data); err != nil || n != len(data) {
		t.Fatalf("Write: %d, %v", n, err)
	}
	s.Close()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(want)/cell.Size; k++ {
		if g, w := got[k*cell.Size:(k+1)*cell.Size], want[k*cell.Size:(k+1)*cell.Size]; !bytes.Equal(g, w) {
			t.Fatalf("cell %d of %d differs from the per-cell reference", k, len(want)/cell.Size)
		}
	}
	rig.circ.mu.Lock()
	left := len(rig.circ.streams)
	rig.circ.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d streams left in the table after Close", left)
	}
}

// TestServiceLayerDropsNonStreamCells: a cell recognized at the service
// layer counts only if it is BEGIN, DATA, END or DROP. Control cells
// there are dropped, never queued for a control wait; the same control
// cell from a hop is queued. The service layer stays in step: a BEGIN
// behind the dropped cells is still accepted.
func TestServiceLayerDropsNonStreamCells(t *testing.T) {
	rig := newServiceRig(t)
	for _, cmd := range []cell.RelayCommand{cell.RelayRendezvous2, cell.RelayExtended,
		cell.RelayIntroduceAck, cell.RelayConnected, cell.RelayTruncated} {
		rig.circ.onDeliver(rig.toService(t, cell.RelayHeader{Cmd: cmd}, []byte("x")), false)
	}
	if n := rig.ctrlQueued(); n != 0 {
		t.Fatalf("%d cells from the service layer queued for a control wait, want none", n)
	}
	rig.circ.onDeliver(rig.fromLastHop(t, cell.RelayHeader{Cmd: cell.RelayRendezvous2}, []byte("x")), false)
	if n := rig.ctrlQueued(); n != 1 {
		t.Fatalf("%d cells queued after a RENDEZVOUS2 from the last hop, want 1", n)
	}
	rig.circ.onDeliver(rig.toService(t, cell.RelayHeader{StreamID: 3, Cmd: cell.RelayBegin}, nil), false)
	select {
	case <-rig.accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("a BEGIN behind the dropped cells was not accepted")
	}
}
