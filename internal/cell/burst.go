package cell

import (
	"io"
	"sync"
	"sync/atomic"
)

// A run of cells — not a cell — is the unit that moves between the
// stages of the goroutine datapath: a link reader takes everything the
// conn already holds, the stage behind it handles the run under one
// lock, and the run leaves through one writer enqueue (DESIGN.md §9.2).

// BurstCells caps a run. It equals the batch size of the two places
// that originate runs (the client's sendData and the exit's
// sendBackwardBatch, 16 cells each), so a run read off a link is at most
// what one sender batch put on it and every scratch sized for one holds
// the other. A constant, not a knob: no two workloads want different
// values, and the cap only bounds how long a cell can sit behind its
// run-mates (16 cells of crypto, ~20 µs).
const BurstCells = 16

// Burst is a pooled buffer holding a run of whole wire frames,
// contiguous from the start of Buf. It comes in two sizes — one cell, so
// a lone request or response cell in flight costs what a GetWire frame
// did, and BurstCells — and which one a run got is nothing its holder
// can observe beyond len(Buf). Ownership follows the same rules as a
// GetWire frame (pool.go): whoever holds it returns it with PutBurst
// exactly once or hands it on, and nobody keeps a slice of it past that.
type Burst struct {
	N   int    // frames held
	Buf []byte // room for 1 or BurstCells frames
}

// Frames returns the held frames as one contiguous slice aliasing Buf.
func (b *Burst) Frames() []byte { return b.Buf[:b.N*Size] }

// Frame returns frame k, aliasing Buf.
func (b *Burst) Frame(k int) []byte { return b.Buf[k*Size : (k+1)*Size] }

// burstPools holds idle bursts: [0] one cell, [1] BurstCells.
var burstPools [2]sync.Pool

// burstsOut counts bursts taken and not yet returned: what tests assert
// on to show that an idle circuit holds none.
var burstsOut atomic.Int64

// GetBurst returns an empty burst with room for cells frames (1, or up
// to BurstCells). The bytes in Buf are the previous owner's until
// overwritten.
func GetBurst(cells int) *Burst {
	burstsOut.Add(1)
	class, room := 0, 1
	if cells > 1 {
		class, room = 1, BurstCells
	}
	b, _ := burstPools[class].Get().(*Burst)
	if b == nil {
		b = &Burst{Buf: make([]byte, room*Size)}
	}
	b.N = 0
	return b
}

// poisonByte fills recycled bursts in simnet_poison builds, the same
// byte simnet fills its recycled chunks with.
const poisonByte = 0xDB

// PutBurst returns a burst obtained from GetBurst to the pool.
func PutBurst(b *Burst) {
	if poisonBursts {
		for i := range b.Buf {
			b.Buf[i] = poisonByte
		}
	}
	burstsOut.Add(-1)
	class := 0
	if len(b.Buf) > Size {
		class = 1
	}
	burstPools[class].Put(b)
}

// BurstsOutstanding reports how many bursts are held outside the pool.
func BurstsOutstanding() int64 { return burstsOut.Load() }

// buffered is the optional method a link offers to say how many bytes a
// Read would return without blocking (every simnet conn does). A link
// without it yields one-cell runs.
type buffered interface{ Buffered() int }

// ReadRun reads the next run of cells from a link. It blocks for one
// whole cell in first — the reader's own Size-byte buffer, the only
// thing it holds while it waits — and then takes every further whole
// cell the link already holds, up to BurstCells in all, without waiting
// for more: a lone cell is handled as soon as it would have been alone.
// The run comes back in a pooled burst the caller owns.
func ReadRun(r io.Reader, first []byte) (*Burst, error) {
	if _, err := io.ReadFull(r, first[:Size]); err != nil {
		return nil, err
	}
	more := 0
	if br, ok := r.(buffered); ok {
		more = min(br.Buffered()/Size, BurstCells-1)
	}
	b := GetBurst(1 + more)
	copy(b.Buf, first[:Size])
	b.N = 1
	if more > 0 {
		// Cannot block: the bytes are there. An error here means the link
		// died under us; the next ReadRun reports it, after the cells that
		// did arrive have been handled.
		n, _ := io.ReadFull(r, b.Buf[Size:(1+more)*Size])
		b.N += n / Size
	}
	return b, nil
}

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
