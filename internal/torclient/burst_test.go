package torclient

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/simnet"
)

// runRig is a one-hop circuit whose guard link carries nothing inbound:
// the test plays the relay, sealing backward cells into a burst and handing it to handleRun
// exactly as dispatch does with a run read off the guard link.
type runRig struct {
	circ  *Circuit
	relay *otr.Layer
}

func newRunRig(t *testing.T) *runRig {
	t.Helper()
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i*5 + 1)
	}
	relaySide, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	clientSide, err := otr.NewLayer(keys)
	if err != nil {
		t.Fatal(err)
	}
	n := simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond)
	// The guard link: only the circuit's teardown ever writes to it.
	link, far := net.Pipe()
	go io.Copy(io.Discard, far)
	t.Cleanup(func() { far.Close() })
	circ := &Circuit{
		client:  New(n.AddHost("client", 0), nil, 1),
		conn:    link,
		w:       cell.NewBatchWriter(link),
		layers:  []*otr.Layer{clientSide},
		streams: make(map[uint16]*Stream),
		ctrl:    make(chan ctrlMsg, 64),
		closed:  make(chan struct{}),
	}
	return &runRig{circ: circ, relay: relaySide}
}

func (rr *runRig) stream(id uint16) *Stream {
	s := newStream(rr.circ, id, false)
	rr.circ.streams[id] = s
	return s
}

// add seals one backward relay cell into the next frame of run.
func (rr *runRig) add(t *testing.T, run *cell.Burst, hdr cell.RelayHeader, data []byte) {
	t.Helper()
	frame := run.Frame(run.N)
	run.N++
	payload := cell.WirePayload(frame)
	if err := cell.PackRelay(payload, hdr, data); err != nil {
		t.Fatal(err)
	}
	rr.relay.SealBackward(payload, cell.DigestOffset)
	rr.relay.ApplyBackward(payload)
	cell.SetWireCircID(frame, 9)
	cell.SetWireCmd(frame, cell.CmdRelay)
}

// TestRunDataThenEndAtClient: DATA×k, END in one run reaches the stream
// as all the bytes and then EOF — the gathered delivery is flushed
// before the END is acted on — and handling the run leaves no burst
// held.
func TestRunDataThenEndAtClient(t *testing.T) {
	rr := newRunRig(t)
	s := rr.stream(1)
	base := cell.BurstsOutstanding()
	run := cell.GetBurst(cell.BurstCells)
	var want []byte
	for i := 0; i < cell.BurstCells-1; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, cell.MaxRelayData-3*i)
		want = append(want, data...)
		rr.add(t, run, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data)
	}
	end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "eof"})
	rr.add(t, run, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayEnd}, end)
	if !rr.circ.handleRun(run) {
		t.Fatal("handleRun reported the circuit dead")
	}
	cell.PutBurst(run)
	got, err := io.ReadAll(s)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stream read %d bytes (err %v), want %d then EOF", len(got), err, len(want))
	}
	if out := cell.BurstsOutstanding(); out != base {
		t.Fatalf("%d bursts held after the run", out-base)
	}
}

// TestRunTwoStreamsInterleavedAtClient: DATA of two streams interleaved
// in one run, a DROP in the middle of it, arrives complete and in order
// on each stream; a DESTROY behind them still delivers what came first.
func TestRunTwoStreamsInterleavedAtClient(t *testing.T) {
	rr := newRunRig(t)
	streams := map[uint16]*Stream{1: rr.stream(1), 2: rr.stream(2)}
	want := map[uint16][]byte{}
	run := cell.GetBurst(cell.BurstCells)
	defer cell.PutBurst(run)
	pattern := []uint16{1, 1, 2, 1, 2, 2, 0, 2, 1, 1, 1, 2} // 0 = DROP
	for seq, id := range pattern {
		if id == 0 {
			rr.add(t, run, cell.RelayHeader{Cmd: cell.RelayDrop}, []byte("cover"))
			continue
		}
		data := make([]byte, 6)
		data[0] = byte(id)
		binary.BigEndian.PutUint32(data[2:], uint32(seq))
		want[id] = append(want[id], data...)
		rr.add(t, run, cell.RelayHeader{StreamID: id, Cmd: cell.RelayData}, data)
	}
	destroy := run.Frame(run.N)
	run.N++
	cell.SetWireCmd(destroy, cell.CmdDestroy)
	if rr.circ.handleRun(run) {
		t.Fatal("handleRun reported the circuit alive after DESTROY")
	}
	for id, s := range streams {
		got := make([]byte, len(want[id])+1)
		n, _ := io.ReadFull(s, got[:len(want[id])])
		if !bytes.Equal(got[:n], want[id]) {
			t.Fatalf("stream %d: read %d bytes, want %d (or out of order)", id, n, len(want[id]))
		}
		if _, err := s.Read(got); err == nil {
			t.Fatalf("stream %d: no error after the circuit was destroyed", id)
		}
	}
}
