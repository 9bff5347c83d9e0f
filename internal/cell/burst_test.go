package cell

import (
	"bytes"
	"testing"
)

// TestDataRunGathersInPlace checks that the in-place gather equals the
// concatenation of the cells' data, across gaps (cells that are not
// DATA) and with short cells in the middle.
func TestDataRunGathersInPlace(t *testing.T) {
	lens := []int{MaxRelayData, MaxRelayData, 17, 0, MaxRelayData, 1}
	b := &Burst{Buf: make([]byte, BurstCells*Size)}
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
