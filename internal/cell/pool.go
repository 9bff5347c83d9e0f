package cell

import (
	"sync"

	"github.com/bento-nfv/bento/internal/otr"
)

// Origination. Each end of a circuit originates relay cells in one place
// (the client's Circuit.originate, the relay's circuit.originate), and
// both work in an Origin taken from the pool: the cells of a run are
// packed into contiguous frames, sealed and encrypted in place through
// their payload views with one batched pass per layer (otr's *Batch
// calls, byte-identical to cell-by-cell crypto), and written with one
// call. A link-level cell (CREATE, CREATED, DESTROY) is one frame, and
// WriteLink builds it in a pooled single frame, as the Cell codec does;
// so no circuit keeps a frame of its own.
//
// Ownership (see DESIGN.md "Datapath & buffer ownership"): an Origin is
// the caller's from GetOrigin to PutOrigin. Its frames may be handed to a
// writer and reused the moment the call returns (writers copy
// synchronously); payload views alias the frames.

// OriginCells is an Origin's capacity: as many cells as one simnet chunk
// (32 KiB) carries.
const OriginCells = 32 << 10 / Size

// Origin is one run of cells being originated.
type Origin struct {
	n       int
	frames  [OriginCells * Size]byte
	views   [OriginCells][]byte
	Scratch otr.CryptScratch // the keystream of the run's batched crypto
}

var origins = sync.Pool{New: func() any { return new(Origin) }}

// wires holds the single frames of link-level cells and of the Cell
// codec (WriteTo, ReadInto), whose callers may park holding one.
var wires = sync.Pool{New: func() any { return new([Size]byte) }}

// GetOrigin takes an Origin from the pool.
func GetOrigin() *Origin { return origins.Get().(*Origin) }

// PutOrigin returns o to the pool; the caller must not touch it again.
func PutOrigin(o *Origin) { origins.Put(o) }

// Pack fills o with relay cells of hdr on circuit circID, replacing what
// it held, and returns how many bytes of data they carry. DATA is split
// into cells of at most MaxRelayData, at most max of them (max ≤
// OriginCells); any other command carries all of data in one cell, which
// PackRelay refuses past MaxRelayData. At least one cell is packed.
func (o *Origin) Pack(circID uint32, hdr RelayHeader, data []byte, max int) (int, error) {
	used := 0
	for o.n = 0; ; {
		chunk := data[used:]
		if hdr.Cmd == RelayData {
			chunk = chunk[:min(len(chunk), MaxRelayData)]
		}
		frame := o.frames[o.n*Size : (o.n+1)*Size]
		payload := WirePayload(frame)
		if err := PackRelay(payload, hdr, chunk); err != nil {
			o.n = 0
			return 0, err
		}
		SetWireCircID(frame, circID)
		SetWireCmd(frame, CmdRelay)
		o.views[o.n] = payload
		o.n++
		if used += len(chunk); used == len(data) || o.n == max {
			return used, nil
		}
	}
}

// WriteLink builds a link-level cell, cmd on circuit circID carrying
// payload zero-padded, in a pooled frame and hands it to write, which
// must not keep it.
func WriteLink(write func([]byte) error, circID uint32, cmd Command, payload []byte) error {
	f := wires.Get().(*[Size]byte)
	defer wires.Put(f)
	SetWireCircID(f[:], circID)
	SetWireCmd(f[:], cmd)
	p := WirePayload(f[:])
	clear(p[copy(p, payload):])
	return write(f[:])
}

// Payloads returns the packed cells' payloads, to seal and encrypt in
// place.
func (o *Origin) Payloads() [][]byte { return o.views[:o.n] }

// Frames returns the packed cells' wire frames, contiguous.
func (o *Origin) Frames() []byte { return o.frames[:o.n*Size] }
