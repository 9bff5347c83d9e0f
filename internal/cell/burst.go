package cell

// A run of cells — not a cell — is the unit that moves through a relay
// and a client: a deliver callback hands on every whole cell a delivery
// holds (FrameBuf), the circuit handles the run under one lock, and the
// run leaves through one write (DESIGN.md §9.2).

// BurstCells is the run size the relay's forward-path probe delivers
// (relay.RunParallelForwardBench) and tests build runs of.
const BurstCells = 16

// Burst is a view of a run of whole wire frames, contiguous from the
// start of Buf: the aligned cells of a delivery to a relay or a client.
// It owns nothing; Buf is its holder's.
type Burst struct {
	N   int    // frames held
	Buf []byte // room for at least N frames
}

// Frames returns the held frames as one contiguous slice aliasing Buf.
func (b *Burst) Frames() []byte { return b.Buf[:b.N*Size] }

// Frame returns frame k, aliasing Buf.
func (b *Burst) Frame(k int) []byte { return b.Buf[k*Size : (k+1)*Size] }

// DataRun gathers the data of consecutive DATA cells of one stream into
// one contiguous slice, in place in the burst that holds them: each
// cell's data is moved down to sit right behind the previous cell's.
// The bytes it overwrites belong to cells already consumed (a
// recognized cell is never forwarded), so nothing is lost. The zero
// value is empty.
type DataRun struct {
	lo, hi int // gathered bytes are Buf[lo:hi]
}

// Add appends the n data bytes of cell k of b. Cells must be added in
// increasing k, all from the same burst, between two Takes.
func (d *DataRun) Add(b *Burst, k, n int) {
	src := k*Size + (Size - PayloadLen) + RelayHeaderLen
	if d.hi == d.lo {
		d.lo, d.hi = src, src+n
		return
	}
	copy(b.Buf[d.hi:], b.Buf[src:src+n])
	d.hi += n
}

// Take returns what was gathered (aliasing b, valid until b is reused)
// and empties the run.
func (d *DataRun) Take(b *Burst) []byte {
	p := b.Buf[d.lo:d.hi]
	d.lo, d.hi = 0, 0
	return p
}

// Empty reports whether nothing has been gathered since the last Take.
func (d *DataRun) Empty() bool { return d.hi == d.lo }
