package cell

import (
	"bytes"
	"testing"
)

// numbered returns n frames, frame i filled with byte(i).
func numbered(n int) []byte {
	out := make([]byte, n*Size)
	for i := 0; i < n; i++ {
		for j := 0; j < Size; j++ {
			out[i*Size+j] = byte(i)
		}
	}
	return out
}

// TestDataRunGathersInPlace checks that the in-place gather equals the
// concatenation of the cells' data, across gaps (cells that are not
// DATA) and with short cells in the middle.
func TestDataRunGathersInPlace(t *testing.T) {
	lens := []int{MaxRelayData, MaxRelayData, 17, 0, MaxRelayData, 1}
	b := GetBurst(BurstCells)
	defer PutBurst(b)
	var want []byte
	k := 0
	for i, n := range lens {
		if i == 2 {
			k++ // leave a cell out of the run
		}
		data := bytes.Repeat([]byte{byte(0x10 + i)}, n)
		if err := PackRelay(WirePayload(b.Frame(k)), RelayHeader{StreamID: 1, Cmd: RelayData}, data); err != nil {
			t.Fatal(err)
		}
		want = append(want, data...)
		k++
	}
	b.N = k
	var d DataRun
	if !d.Empty() {
		t.Fatal("zero DataRun not empty")
	}
	k = 0
	for i, n := range lens {
		if i == 2 {
			k++
		}
		d.Add(b, k, n)
		k++
	}
	if got := d.Take(b); !bytes.Equal(got, want) {
		t.Fatalf("gathered %d bytes, want %d; or wrong bytes", len(got), len(want))
	}
	if !d.Empty() {
		t.Fatal("DataRun not empty after Take")
	}
}

// TestTryWriteFramesTakesRunWhole: a run is queued whole under one lock
// or refused whole, and leaves in order behind what was queued before.
func TestTryWriteFramesTakesRunWhole(t *testing.T) {
	release := make(chan struct{})
	conn := &gateConn{release: release}
	w := NewBatchWriter(conn)
	run := numbered(BurstCells)
	accepted := 0
	for {
		ok, err := w.TryWriteFrames(run)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		accepted++
		if accepted > maxBatchCells {
			t.Fatal("TryWriteFrames never reported a full writer")
		}
	}
	if ok, err := w.TryWriteFrames(run[:Size+1]); ok || err == nil {
		t.Fatal("a torn run was accepted")
	}
	close(release)
	w.Close()
	data, _, _ := conn.snapshot()
	if len(data) != accepted*len(run) {
		t.Fatalf("%d runs accepted, %d bytes arrived", accepted, len(data))
	}
	for off := 0; off < len(data); off += len(run) {
		if !bytes.Equal(data[off:off+len(run)], run) {
			t.Fatalf("run at %d torn or reordered", off)
		}
	}
}
