package cell

import (
	"bytes"
	"io"
	"testing"
)

// segConn serves a byte stream in caller-chosen segments: a Read with
// nothing available takes the next segment, and Buffered reports what is
// left of the current one — a link that has delivered exactly that much.
type segConn struct {
	data  []byte
	segs  []int // successive segment sizes; the last repeats
	avail int
}

func (c *segConn) Read(p []byte) (int, error) {
	if c.avail == 0 {
		if len(c.data) == 0 {
			return 0, io.EOF
		}
		c.avail = min(c.segs[0], len(c.data))
		if len(c.segs) > 1 {
			c.segs = c.segs[1:]
		}
	}
	n := copy(p, c.data[:c.avail])
	c.data = c.data[n:]
	c.avail -= n
	return n, nil
}

func (c *segConn) Buffered() int { return c.avail }

// blindConn hides Buffered: a link that cannot say what it holds.
type blindConn struct{ c *segConn }

func (b blindConn) Read(p []byte) (int, error) { return b.c.Read(p) }

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

// readAllRuns drains r through ReadRun and returns the run sizes and the
// bytes in order.
func readAllRuns(t *testing.T, r io.Reader) (sizes []int, got []byte) {
	t.Helper()
	first := make([]byte, Size)
	for {
		run, err := ReadRun(r, first)
		if err != nil {
			return sizes, got
		}
		if run.N < 1 || run.N > BurstCells {
			t.Fatalf("run of %d cells", run.N)
		}
		sizes = append(sizes, run.N)
		got = append(got, run.Frames()...)
		PutBurst(run)
	}
}

// TestReadRunTakesWhatTheLinkHolds pins the reassembler: one blocking
// read for the first cell, then every whole cell already delivered and
// not one byte more, capped at BurstCells; a link that cannot report
// what it holds yields one-cell runs. Whatever the segmentation, the
// cells come out whole, in order, and every burst goes back.
func TestReadRunTakesWhatTheLinkHolds(t *testing.T) {
	base := BurstsOutstanding()
	stream := numbered(40)
	for _, tc := range []struct {
		name string
		segs []int
		want []int
	}{
		{"all delivered", []int{40 * Size}, []int{16, 16, 8}},
		{"cell at a time", []int{Size}, nil},
		{"lone cell then burst", []int{Size, 39 * Size}, []int{1, 16, 16, 7}},
		{"partial tail stays", []int{3*Size + 100, 37*Size - 100}, []int{3, 16, 16, 5}},
		{"split first cell", []int{1, Size - 1, 2 * Size, 5, 37 * Size}, nil},
		{"bytewise", []int{1}, nil},
	} {
		c := &segConn{data: stream, segs: tc.segs}
		sizes, got := readAllRuns(t, c)
		if !bytes.Equal(got, stream) {
			t.Fatalf("%s: cells reordered, torn or lost", tc.name)
		}
		if tc.want != nil && !equalInts(sizes, tc.want) {
			t.Fatalf("%s: runs %v, want %v", tc.name, sizes, tc.want)
		}
	}
	sizes, got := readAllRuns(t, blindConn{&segConn{data: stream, segs: []int{40 * Size}}})
	if !bytes.Equal(got, stream) || len(sizes) != 40 {
		t.Fatalf("blind link: %d runs, want 40 one-cell runs", len(sizes))
	}
	if out := BurstsOutstanding(); out != base {
		t.Fatalf("%d bursts not returned", out-base)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReadRunLoneCellTakesSmallBurst pins the idle/latency half of the
// contract: a cell that arrives alone rides a one-cell burst, not a
// BurstCells one.
func TestReadRunLoneCellTakesSmallBurst(t *testing.T) {
	run, err := ReadRun(&segConn{data: numbered(1), segs: []int{Size}}, make([]byte, Size))
	if err != nil {
		t.Fatal(err)
	}
	defer PutBurst(run)
	if run.N != 1 || len(run.Buf) != Size {
		t.Fatalf("lone cell: N=%d in a %d-byte burst", run.N, len(run.Buf))
	}
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
