package relay

import (
	"bytes"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/dirauth"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/simnet"
)

// Differential tests for the reassembler and the run datapath behind it.
// The reference is a cell-at-a-time model written here (the oracle
// functions below: peel, recognize, dispatch or forward, one cell per
// step, on its own otr.Layer built from the same key material), so it is
// the burst cap forced to 1 by construction and shares no code with the
// relay. The relay under test gets the same bytes through its deliver
// callbacks in chosen segments — so the test, not the scheduler, decides
// where each run starts and ends.

// scriptConn is a link that plays a byte script to its reader in
// segments and records what is written to it. A Read with nothing
// available releases the next segment and returns at most what is left
// of it. A gate holds the script at a byte position until the far side
// has written a number of cells, which is how a test keeps two sources of
// backward cells from racing each other.
type scriptConn struct {
	mu     sync.Mutex
	cond   sync.Cond
	in     []byte // script not yet read
	pos    int    // script bytes read so far
	segs   []int  // segment sizes, cycled
	segIx  int
	avail  int    // released and unread
	gates  []gate // ascending by at
	hold   bool   // at the end of the script, wait for Close instead of EOF
	out    []byte // everything written
	closed bool
}

type gate struct {
	at    int // script position the gate sits in front of
	cells int // cells that must have been written before it opens
}

func newScriptConn(script []byte, segs []int) *scriptConn {
	c := &scriptConn{in: script, segs: segs}
	c.cond.L = &c.mu
	return c
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.avail == 0 {
		switch {
		case c.closed:
			return 0, net.ErrClosed
		case len(c.gates) > 0 && c.gates[0].at == c.pos:
			if len(c.out)/cell.Size < c.gates[0].cells {
				c.cond.Wait()
			} else {
				c.gates = c.gates[1:]
			}
		case len(c.in) == 0:
			if !c.hold {
				return 0, io.EOF
			}
			c.cond.Wait()
		default:
			seg := min(max(c.segs[c.segIx%len(c.segs)], 1), len(c.in))
			c.segIx++
			if len(c.gates) > 0 {
				seg = min(seg, c.gates[0].at-c.pos)
			}
			c.avail = seg
		}
	}
	n := copy(p, c.in[:c.avail])
	c.in = c.in[n:]
	c.avail -= n
	c.pos += n
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.out = append(c.out, p...)
	c.cond.Broadcast()
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// waitCells blocks until n cells have been written to the conn; it
// gives up, closes the conn and reports false after 20 s or once the
// conn is closed.
func (c *scriptConn) waitCells(n int) bool {
	stop := time.AfterFunc(20*time.Second, func() { c.Close() })
	defer stop.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.out)/cell.Size < n {
		if c.closed {
			return false
		}
		c.cond.Wait()
	}
	return true
}

func (c *scriptConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.out...)
}

func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptLight is a scriptConn as a circuit wants its client link:
// writes never wait, and it never holds a backlog. The test plays the script into the relay's
// deliver callback itself, a released segment per call.
type scriptLight struct{ *scriptConn }

func (c scriptLight) SetDeliverFunc(func([]byte, bool)) {}
func (c scriptLight) WriteAsync(p []byte) error {
	_, err := c.Write(p)
	return err
}
func (c scriptLight) Backlog() int   { return 0 }
func (c scriptLight) OnDrain(func()) {}

// recConn records what is written to it and reports when it is closed:
// a destination, or the far end of an egress link.
type recConn struct {
	mu     sync.Mutex
	buf    []byte
	closed chan struct{}
	once   sync.Once
}

func newRecConn() *recConn { return &recConn{closed: make(chan struct{})} }

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	c.mu.Unlock()
	return len(p), nil
}
func (c *recConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *recConn) Read([]byte) (int, error)         { <-c.closed; return 0, io.EOF }
func (c *recConn) LocalAddr() net.Addr              { return nil }
func (c *recConn) RemoteAddr() net.Addr             { return nil }
func (c *recConn) SetDeadline(time.Time) error      { return nil }
func (c *recConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

// recLink is a recConn as a LightConn: WriteAsync records like Write,
// and it never holds a backlog.
type recLink struct{ *recConn }

func (c recLink) SetDeliverFunc(func([]byte, bool)) {}
func (c recLink) WriteAsync(p []byte) error {
	_, err := c.Write(p)
	return err
}
func (c recLink) Backlog() int   { return 0 }
func (c recLink) OnDrain(func()) {}

func (c *recConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...)
}

func (c *recConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// --- the trace --------------------------------------------------------------

const (
	diffCircID = 0x0BADCAFE // the inbound link's circuit ID
	diffNextID = 0x22222222 // the next-hop link's, where the test picks it
)

func diffKeys() []byte {
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i*29 + 11)
	}
	return keys
}

func diffLayer(t testing.TB) *otr.Layer {
	t.Helper()
	l, err := otr.NewLayer(diffKeys())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// traceWriter builds the byte script of one link direction: relay cells
// sealed for the relay under test by the far side's copy of its layer,
// cells that are opaque to it, and bare link cells.
type traceWriter struct {
	t     testing.TB
	layer *otr.Layer
	rng   *mrand.Rand
	buf   []byte
}

func (w *traceWriter) frame(cmd cell.Command, payload []byte) {
	var f [cell.Size]byte
	cell.SetWireCircID(f[:], diffCircID)
	cell.SetWireCmd(f[:], cmd)
	copy(cell.WirePayload(f[:]), payload)
	w.buf = append(w.buf, f[:]...)
}

// relay appends a forward relay cell addressed to the relay under test.
func (w *traceWriter) relay(hdr cell.RelayHeader, data []byte) {
	p := make([]byte, cell.PayloadLen)
	if err := cell.PackRelay(p, hdr, data); err != nil {
		w.t.Fatal(err)
	}
	w.layer.SealForward(p, cell.DigestOffset)
	w.layer.ApplyForward(p)
	w.frame(cell.CmdRelay, p)
}

// opaqueFwd appends a forward cell the relay will not recognize: after
// its peel the payload is the returned plaintext, recognized field
// non-zero.
func (w *traceWriter) opaqueFwd() {
	p := make([]byte, cell.PayloadLen)
	w.rng.Read(p)
	p[cell.RecognizedOffset] |= 0x80
	w.layer.ApplyForward(p)
	w.frame(cell.CmdRelay, p)
}

// opaqueBwd appends a backward cell as a next hop would send it: bytes
// the relay only adds its layer to.
func (w *traceWriter) opaqueBwd() {
	p := make([]byte, cell.PayloadLen)
	w.rng.Read(p)
	w.frame(cell.CmdRelay, p)
}

func (w *traceWriter) data(stream uint16, n int) {
	d := make([]byte, n)
	w.rng.Read(d)
	w.relay(cell.RelayHeader{StreamID: stream, Cmd: cell.RelayData}, d)
}

// corrupt flips one payload byte of every cell whose bit is set in mask
// (bit i of the mask is cell i), and reports how many it touched.
func corrupt(script []byte, mask []byte, firstBit int) {
	for i := 0; i*cell.Size < len(script); i++ {
		bit := firstBit + i
		if bit/8 >= len(mask) || mask[bit/8]&(1<<(bit%8)) == 0 {
			continue
		}
		script[i*cell.Size+5+(i*37)%cell.PayloadLen] ^= 0x41
	}
}

// --- the oracle -------------------------------------------------------------

// linkCell appends one cell as the relay puts it on a link.
func linkCell(out []byte, circID uint32, cmd cell.Command, payload []byte) []byte {
	var f [cell.Size]byte
	cell.SetWireCircID(f[:], circID)
	cell.SetWireCmd(f[:], cmd)
	copy(cell.WirePayload(f[:]), payload)
	return append(out, f[:]...)
}

// oracleForward is the cell-at-a-time reference for a middle-and-exit
// hop with an open next hop and open streams: what the next-hop link and
// each stream's destination must receive for the forward script, and
// which streams an END closed. Recognized commands other than DATA, END
// and DROP are the caller's business (the callback); nothing in these
// traces produces a parse error.
func oracleForward(l *otr.Layer, script []byte, nextID uint32, open map[uint16]bool, other func(cell.RelayHeader, []byte)) (next []byte, streams map[uint16][]byte) {
	streams = map[uint16][]byte{}
	for off := 0; off+cell.Size <= len(script); off += cell.Size {
		frame := script[off : off+cell.Size]
		if cell.WireCmd(frame) != cell.CmdRelay {
			continue
		}
		p := append([]byte(nil), cell.WirePayload(frame)...)
		l.ApplyForward(p)
		if !cell.Recognized(p) || !l.VerifyForward(p, cell.DigestOffset) {
			next = linkCell(next, nextID, cell.CmdRelay, p)
			continue
		}
		hdr, data, err := cell.ParseRelay(p)
		if err != nil {
			panic("oracle: trace holds an unparsable recognized cell")
		}
		switch hdr.Cmd {
		case cell.RelayData:
			if open[hdr.StreamID] {
				streams[hdr.StreamID] = append(streams[hdr.StreamID], data...)
			}
		case cell.RelayEnd:
			open[hdr.StreamID] = false
		case cell.RelayDrop:
		default:
			other(hdr, data)
		}
	}
	return next, streams
}

// oracleSealBack is one backward cell originated at the relay.
func oracleSealBack(l *otr.Layer, out []byte, hdr cell.RelayHeader, data []byte) []byte {
	p := make([]byte, cell.PayloadLen)
	if err := cell.PackRelay(p, hdr, data); err != nil {
		panic(err)
	}
	l.SealBackward(p, cell.DigestOffset)
	l.ApplyBackward(p)
	return linkCell(out, diffCircID, cell.CmdRelay, p)
}

// oraclePumpBack is what the client link must carry for a script of
// backward cells arriving from the next hop.
func oraclePumpBack(l *otr.Layer, out []byte, script []byte) []byte {
	for off := 0; off+cell.Size <= len(script); off += cell.Size {
		frame := script[off : off+cell.Size]
		if cell.WireCmd(frame) != cell.CmdRelay {
			continue
		}
		p := append([]byte(nil), cell.WirePayload(frame)...)
		l.ApplyBackward(p)
		out = linkCell(out, diffCircID, cell.CmdRelay, p)
	}
	return out
}

// layerProbe reads out where a layer's four pieces of state stand — the
// two keystream positions and the two rolling digests — by using each
// once. Two layers that processed the same cells give the same probe.
func layerProbe(l *otr.Layer) []byte {
	out := make([]byte, 4*cell.PayloadLen)
	l.ApplyForward(out[:cell.PayloadLen])
	l.ApplyBackward(out[cell.PayloadLen : 2*cell.PayloadLen])
	l.SealForward(out[2*cell.PayloadLen:3*cell.PayloadLen], cell.DigestOffset)
	l.SealBackward(out[3*cell.PayloadLen:], cell.DigestOffset)
	return out
}

// --- the split harness (no network) -----------------------------------------

// splitCase is one way of cutting the split trace's two byte streams.
type splitCase struct {
	fwdSegs, bwdSegs []int
	mask             []byte // corruption, bit per cell: forward cells first
}

const (
	splitFwdCells = 112
	splitBwdCells = 48
)

// splitTrace is the forward and backward script of the split harness: a
// hop that is a middle for some cells and an exit for two streams. The
// forward script mixes cells for the next hop, DATA of two streams in
// runs of varying length and cell fill, DROPs, an END for stream 1 with
// DATA for it still behind, and an END for stream 2 last.
func splitTrace(t testing.TB) (fwd, bwd []byte) {
	w := &traceWriter{t: t, layer: diffLayer(t), rng: mrand.New(mrand.NewSource(7))}
	end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "done"})
	for i := 0; i < splitFwdCells-1; i++ {
		switch {
		case i == 70:
			w.relay(cell.RelayHeader{StreamID: 1, Cmd: cell.RelayEnd}, end)
		case i%11 == 3:
			w.relay(cell.RelayHeader{Cmd: cell.RelayDrop}, []byte("cover"))
		case i%5 == 0 || i%13 == 7:
			w.opaqueFwd()
		case i%7 < 4:
			w.data(1, cell.MaxRelayData-(i%3)*100)
		default:
			w.data(2, 1+i*4)
		}
	}
	w.relay(cell.RelayHeader{StreamID: 2, Cmd: cell.RelayEnd}, end)
	fwd = w.buf
	w = &traceWriter{t: t, rng: mrand.New(mrand.NewSource(8))}
	for i := 0; i < splitBwdCells; i++ {
		w.opaqueBwd()
	}
	return fwd, w.buf
}

// splitResult is everything the relay emitted for one run of the split
// trace, plus where its crypto state ended up.
type splitResult struct {
	next, client []byte
	streams      map[uint16][]byte
	closed       map[uint16]bool
	probe        []byte
}

func (a splitResult) diff(b splitResult) string {
	switch {
	case !bytes.Equal(a.next, b.next):
		return fmt.Sprintf("next-hop link: %d vs %d bytes, first difference at %d", len(a.next), len(b.next), firstDiff(a.next, b.next))
	case !bytes.Equal(a.client, b.client):
		return fmt.Sprintf("client link: %d vs %d bytes, first difference at %d", len(a.client), len(b.client), firstDiff(a.client, b.client))
	case !bytes.Equal(a.probe, b.probe):
		return "final keystream positions or digest states differ"
	}
	for id := uint16(1); id <= 2; id++ {
		if !bytes.Equal(a.streams[id], b.streams[id]) {
			return fmt.Sprintf("stream %d: %d vs %d bytes, first difference at %d", id, len(a.streams[id]), len(b.streams[id]), firstDiff(a.streams[id], b.streams[id]))
		}
		if a.closed[id] != b.closed[id] {
			return fmt.Sprintf("stream %d closed: %v vs %v", id, a.closed[id], b.closed[id])
		}
	}
	return ""
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// splitWant is the oracle's answer for the (corrupted) split trace.
func splitWant(t testing.TB, fwd, bwd []byte) splitResult {
	l := diffLayer(t)
	open := map[uint16]bool{1: true, 2: true}
	next, streams := oracleForward(l, fwd, diffNextID, open, func(hdr cell.RelayHeader, _ []byte) {
		t.Fatalf("split trace holds a %v", hdr.Cmd)
	})
	// Teardown says goodbye to the next hop and closes whatever is open.
	next = linkCell(next, diffNextID, cell.CmdDestroy, nil)
	return splitResult{
		next:    next,
		client:  oraclePumpBack(l, nil, bwd),
		streams: streams,
		closed:  map[uint16]bool{1: true, 2: true},
		probe:   layerProbe(l),
	}
}

// play hands script to deliver in segments cut as segs says (cycled),
// each a fresh copy, as a link's deliveries are lent chunks.
func play(script []byte, segs []int, deliver func([]byte, bool)) {
	for i := 0; len(script) > 0; i++ {
		seg := min(max(segs[i%len(segs)], 1), len(script))
		deliver(append([]byte(nil), script[:seg]...), false)
		script = script[seg:]
	}
}

// runSplit pushes the split trace through the circuit's real deliver
// callbacks, the links cut as sc says: the backward script into the
// next-hop link's, then the forward script and its end into the client
// link's.
func runSplit(t testing.TB, sc splitCase) (got, want splitResult) {
	t.Helper()
	fwd, bwd := splitTrace(t)
	corrupt(fwd, sc.mask, 0)
	corrupt(bwd, sc.mask, splitFwdCells)
	want = splitWant(t, fwd, bwd)

	r := &Relay{cfg: Config{Quiet: true}, m: newRelayMetrics(nil)}
	client, nextRec := newRecConn(), newRecConn()
	ce := &circuit{relay: r, conn: recLink{client}}
	ce.establish(diffCircID, diffLayer(t))
	ce.next, ce.extended, ce.nextCircID = recLink{nextRec}, true, diffNextID
	dests := map[uint16]*recConn{1: newRecConn(), 2: newRecConn()}
	ce.streams = map[uint16]simnet.LightConn{}
	for id, d := range dests {
		ce.streams[id] = recLink{d}
	}
	play(bwd, sc.bwdSegs, ce.onBackward)
	play(fwd, sc.fwdSegs, ce.onDeliver)
	ce.onDeliver(nil, true) // the client link ends: teardown
	if !nextRec.isClosed() {
		t.Fatal("teardown did not close the next-hop link")
	}

	got = splitResult{
		next:    nextRec.bytes(),
		client:  client.bytes(),
		streams: map[uint16][]byte{},
		closed:  map[uint16]bool{},
		probe:   layerProbe(ce.layer),
	}
	for id, d := range dests {
		if b := d.bytes(); len(b) > 0 {
			got.streams[id] = b
		}
		got.closed[id] = d.isClosed()
	}
	return got, want
}

// TestBurstSplitEveryOffset cuts the inbound byte stream at every offset
// of the first three cells — with the rest delivered whole, and with the
// rest cut at seeded random points — and, separately, delivers it a cell
// at a time and in segments that never line up with cells. Every cut must give the oracle's bytes on every link and
// the oracle's final crypto state.
func TestBurstSplitEveryOffset(t *testing.T) {
	check := func(name string, sc splitCase) {
		t.Helper()
		got, want := runSplit(t, sc)
		if d := got.diff(want); d != "" {
			t.Fatalf("%s: relay differs from the per-cell reference: %s", name, d)
		}
	}
	whole := []int{1 << 20}
	check("whole", splitCase{fwdSegs: whole, bwdSegs: whole})
	check("cell at a time", splitCase{fwdSegs: []int{cell.Size}, bwdSegs: []int{cell.Size}})
	check("never aligned", splitCase{fwdSegs: []int{cell.Size + 1, 3*cell.Size - 2, 1, 7 * cell.Size}, bwdSegs: []int{cell.Size - 1, 20*cell.Size + 3}})

	step := 1
	if raceEnabled || testing.Short() {
		step = 13
	}
	rng := mrand.New(mrand.NewSource(99))
	for off := 1; off <= 3*cell.Size; off += step {
		check(fmt.Sprintf("cut at %d", off), splitCase{fwdSegs: []int{off, 1 << 20}, bwdSegs: []int{off, 1 << 20}})
		if off%5 != 0 {
			continue
		}
		segs := []int{off}
		for i := 0; i < 24; i++ {
			segs = append(segs, 1+rng.Intn(18*cell.Size))
		}
		check(fmt.Sprintf("cut at %d then random", off), splitCase{fwdSegs: segs, bwdSegs: segs[1:]})
	}
}

// TestBurstSplitCorrupted: a corrupted cell fails recognition or its
// digest exactly where the per-cell reference places it, and no later
// cell shifts — in particular a damaged recognized cell derails the
// rolling digest for what follows in both, identically.
func TestBurstSplitCorrupted(t *testing.T) {
	segs := []int{5 * cell.Size, 700, 16 * cell.Size, 1}
	for _, mask := range [][]byte{
		{0x01},                               // the first cell
		{0x00, 0x02},                         // a DATA cell in the middle of a run
		{0x00, 0x00, 0x00, 0x00, 0x01, 0xFF}, // a stretch of eight
		bytes.Repeat([]byte{0x10}, 20),       // one in eight, both directions
	} {
		got, want := runSplit(t, splitCase{fwdSegs: segs, bwdSegs: segs, mask: mask})
		if d := got.diff(want); d != "" {
			t.Fatalf("mask %x: relay differs from the per-cell reference: %s", mask, d)
		}
	}
}

// FuzzBurstSplit lets the fuzzer pick the cut points of both links and
// which cells are damaged on the way in. Whatever it picks, the relay
// must match the per-cell reference byte for byte on every link and end
// in the same crypto state.
func FuzzBurstSplit(f *testing.F) {
	f.Add([]byte{255}, []byte{})
	f.Add([]byte{0, 56, 57, 1, 200}, []byte{0x04})
	f.Add([]byte{113, 3, 250, 9}, []byte{0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01})
	f.Fuzz(func(t *testing.T, cuts, mask []byte) {
		if len(cuts) == 0 || len(cuts) > 64 || len(mask) > (splitFwdCells+splitBwdCells+7)/8 {
			t.Skip()
		}
		// A cut byte is a segment length: 0..254 step through sub-cell to
		// four-cell segments, 255 is longer than a full burst.
		segs := make([]int, len(cuts))
		for i, b := range cuts {
			segs[i] = 1 + int(b)*9
			if b == 255 {
				segs[i] = 17*cell.Size + 3
			}
		}
		bwd := append([]int(nil), segs...)
		for i, j := 0, len(bwd)-1; i < j; i, j = i+1, j-1 {
			bwd[i], bwd[j] = bwd[j], bwd[i]
		}
		got, want := runSplit(t, splitCase{fwdSegs: segs, bwdSegs: bwd, mask: mask})
		if d := got.diff(want); d != "" {
			t.Fatalf("relay differs from the per-cell reference: %s", d)
		}
	})
}

// --- the whole trace, over the emulated network ----------------------------

// TestBurstTraceDifferential drives one relay through a whole circuit's
// life — EXTEND with cells for the new hop behind it, 200 cells back
// from that hop, BEGIN, 200 DATA cells out with DROPs and next-hop cells
// between them, 200 DATA cells back, END, DESTROY — with the CREATE
// handshake's result injected, so every byte the relay emits is
// determined, and compares each link with the per-cell reference. The
// next hop and the destination are scripted peers on the emulated
// network; gates keep the three sources of backward cells (the forward
// path's replies, the next hop's cells, the destination's bytes) from
// overlapping, so the client link has one possible byte sequence. The
// trace is delivered to the client link's callback a cell at a time
// ("blind"), whole, and cut at seeded random points, with the relay on a
// wall-backed clock, and with the same cuts on the event clock
// ("light/").
func TestBurstTraceDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		segs []int
	}{
		{"blind", []int{cell.Size}},
		{"whole", []int{1 << 20}},
		{"seed 1", randomSegs(1)},
		{"seed 2", randomSegs(2)},
		{"seed 3", randomSegs(3)},
	} {
		t.Run(tc.name, func(t *testing.T) { runTrace(t, tc.segs, false) })
		if tc.name != "blind" {
			t.Run("light/"+tc.name, func(t *testing.T) { runTrace(t, tc.segs, true) })
		}
	}
}

func randomSegs(seed int64) []int {
	rng := mrand.New(mrand.NewSource(seed))
	segs := make([]int, 64)
	for i := range segs {
		segs[i] = 1 + rng.Intn(20*cell.Size)
	}
	return segs
}

const (
	traceOpaqueA  = 40  // cells for the new hop riding behind the EXTEND
	traceBack     = 200 // cells the next hop sends back
	traceData     = 200 // DATA cells each way on the exit stream
	traceBlock    = 50  // cells' worth the peers write at a time: one simnet chunk
	traceOutA     = 1   // client-link cells after phase A (EXTENDED)
	traceOutB     = traceOutA + traceBack
	traceOutBegin = traceOutB + 1 // + CONNECTED
	traceOutData  = traceOutBegin + traceData
)

func runTrace(t *testing.T, segs []int, light bool) {
	clock := simnet.NewClock(0.001)
	if light {
		clock = simnet.NewEventClock()
		defer clock.Stop()
	}
	n := simnet.NewNetwork(clock, time.Millisecond)
	r, err := New(n.AddHost("relay0", 0), Config{
		Nickname:   "relay0",
		Flags:      []string{dirauth.FlagGuard, dirauth.FlagExit},
		ExitPolicy: policy.AcceptAll(),
		Quiet:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The forward script, with the gates that wait for the relay's
	// replies, and the two peers' backward scripts.
	handshake := bytes.Repeat([]byte{0x33}, otr.PublicKeyLen)
	createdReply := bytes.Repeat([]byte{0x44}, otr.PublicKeyLen+otr.AuthLen)
	w := &traceWriter{t: t, layer: diffLayer(t), rng: mrand.New(mrand.NewSource(21))}
	var gates []gate
	ext, _ := cell.EncodeControl(&cell.ExtendPayload{Addr: "next:9001", Handshake: handshake})
	w.relay(cell.RelayHeader{Cmd: cell.RelayExtend}, ext)
	for i := 0; i < traceOpaqueA; i++ {
		w.opaqueFwd()
	}
	gates = append(gates, gate{at: len(w.buf), cells: traceOutB})
	begin, _ := cell.EncodeControl(&cell.BeginPayload{Target: "dest:80"})
	w.relay(cell.RelayHeader{StreamID: 1, Cmd: cell.RelayBegin}, begin)
	for i := 0; i < traceData; i++ {
		w.data(1, cell.MaxRelayData)
		if i%25 == 24 {
			w.relay(cell.RelayHeader{Cmd: cell.RelayDrop}, []byte("cover"))
			w.opaqueFwd()
		}
	}
	gates = append(gates, gate{at: len(w.buf), cells: traceOutData})
	end, _ := cell.EncodeControl(&cell.EndPayload{Reason: "done"})
	// Closing the stream from this side ends it quietly: no END(eof).
	w.relay(cell.RelayHeader{StreamID: 1, Cmd: cell.RelayEnd}, end)
	w.frame(cell.CmdDestroy, nil)
	fwd := w.buf

	bw := &traceWriter{t: t, rng: mrand.New(mrand.NewSource(22))}
	for i := 0; i < traceBack; i++ {
		bw.opaqueBwd()
	}
	back := bw.buf
	reply := make([]byte, traceData*cell.MaxRelayData)
	mrand.New(mrand.NewSource(23)).Read(reply)

	inbound := newScriptConn(fwd, segs)
	inbound.gates = gates

	// The next hop: CREATED for the CREATE, then — once the EXTENDED is
	// on the client link — its backward cells, a chunk's worth at a time.
	// It records every byte it is sent.
	nextLn, err := n.AddHost("next", 0).Listen(ORPort)
	if err != nil {
		t.Fatal(err)
	}
	defer nextLn.Close()
	nextGot := make(chan []byte, 1)
	go func() {
		c, err := nextLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		rec := make([]byte, (1+traceOpaqueA)*cell.Size)
		if _, err := io.ReadFull(c, rec[:cell.Size]); err != nil {
			nextGot <- nil
			return
		}
		created := &cell.Cell{CircID: cell.WireCircID(rec), Cmd: cell.CmdCreated}
		copy(created.Payload[:], createdReply)
		cell.Write(c, created)
		if _, err := io.ReadFull(c, rec[cell.Size:]); err != nil || !inbound.waitCells(traceOutA) {
			nextGot <- rec
			return
		}
		for off := 0; off < len(back); off += traceBlock * cell.Size {
			blk := append([]byte(nil), back[off:off+traceBlock*cell.Size]...)
			for o := 0; o < len(blk); o += cell.Size {
				cell.SetWireCircID(blk[o:], cell.WireCircID(rec))
			}
			c.Write(blk)
		}
		rest, _ := io.ReadAll(c)
		nextGot <- append(rec, rest...)
	}()

	// The destination: takes the upload, then — everything else quiet —
	// sends the reply, a chunk's worth at a time, each block only after
	// the one before is on the client link.
	destLn, err := n.AddHost("dest", 0).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer destLn.Close()
	destGot := make(chan []byte, 1)
	go func() {
		c, err := destLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		up := make([]byte, traceData*cell.MaxRelayData)
		if _, err := io.ReadFull(c, up); err != nil {
			destGot <- nil
			return
		}
		ok := inbound.waitCells(traceOutBegin)
		for i := 0; ok && i < traceData/traceBlock; i++ {
			c.Write(reply[i*traceBlock*cell.MaxRelayData : (i+1)*traceBlock*cell.MaxRelayData])
			ok = inbound.waitCells(traceOutBegin + (i+1)*traceBlock)
		}
		rest, _ := io.ReadAll(c) // to the relay's close
		destGot <- append(up, rest...)
	}()

	// What the per-cell reference says each link carries.
	l := diffLayer(t)
	var wantClient []byte
	var extended []byte
	open := map[uint16]bool{1: true}
	wantNext, wantStreams := oracleForward(l, fwd, 0, open, func(hdr cell.RelayHeader, _ []byte) {
		switch hdr.Cmd {
		case cell.RelayExtend:
			extended, _ = cell.EncodeControl(&cell.ExtendedPayload{Reply: createdReply})
		case cell.RelayBegin:
		default:
			t.Fatalf("trace holds a %v", hdr.Cmd)
		}
	})
	create := make([]byte, cell.PayloadLen)
	copy(create, handshake)
	wantNext = append(linkCell(nil, 0, cell.CmdCreate, create), wantNext...)
	wantNext = linkCell(wantNext, 0, cell.CmdDestroy, nil)
	wantClient = oracleSealBack(l, wantClient, cell.RelayHeader{Cmd: cell.RelayExtended}, extended)
	wantClient = oraclePumpBack(l, wantClient, back)
	wantClient = oracleSealBack(l, wantClient, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayConnected}, nil)
	for off := 0; off < len(reply); off += cell.MaxRelayData {
		wantClient = oracleSealBack(l, wantClient, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, reply[off:off+cell.MaxRelayData])
	}

	// The relay under test, from just after its CREATE handshake.
	ce := &circuit{relay: r, conn: scriptLight{inbound}}
	ce.establish(diffCircID, diffLayer(t))
	for seg := make([]byte, 1<<16); ; {
		k, err := inbound.Read(seg) // a released segment at a time
		if err != nil {
			break // the DESTROY tore the circuit down and closed the link
		}
		ce.onDeliver(seg[:k], false)
	}

	recv := func(ch <-chan []byte, what string) []byte {
		select {
		case b := <-ch:
			return b
		case <-time.After(20 * time.Second):
			t.Fatalf("%s never finished", what)
			return nil
		}
	}
	gotNext := recv(nextGot, "next hop") // EOF there: teardown ran
	gotDest := recv(destGot, "destination")
	gotClient := inbound.written()

	// The relay draws the next link's circuit ID at random: blank it.
	for off := 0; off+cell.Size <= len(gotNext); off += cell.Size {
		cell.SetWireCircID(gotNext[off:], 0)
	}
	if !bytes.Equal(gotNext, wantNext) {
		t.Fatalf("next-hop link: %d bytes, want %d, first difference at %d", len(gotNext), len(wantNext), firstDiff(gotNext, wantNext))
	}
	if !bytes.Equal(gotDest, wantStreams[1]) {
		t.Fatalf("destination: %d bytes, want %d, first difference at %d", len(gotDest), len(wantStreams[1]), firstDiff(gotDest, wantStreams[1]))
	}
	if !bytes.Equal(gotClient, wantClient) {
		t.Fatalf("client link: %d bytes, want %d, first difference at %d (cell %d)", len(gotClient), len(wantClient), firstDiff(gotClient, wantClient), firstDiff(gotClient, wantClient)/cell.Size)
	}
	if !bytes.Equal(layerProbe(ce.layer), layerProbe(l)) {
		t.Fatal("final keystream positions or digest states differ from the reference")
	}
}
