package cell

import "sync"

// Pooled wire buffers for the zero-copy datapath.
//
// Ownership rules (see DESIGN.md "Datapath & buffer ownership"):
//
//   - GetWire transfers ownership of a Size-byte buffer to the caller.
//     The caller must either PutWire it exactly once when done, or keep
//     it for the lifetime of a connection (long-lived per-link read
//     buffers never return to the pool; that is fine).
//   - A buffer handed to a writer (net.Conn.Write, linkWriter enqueue)
//     may be reused the moment the call returns: writers copy or
//     serialize synchronously and never retain the slice.
//   - Payload sub-slices obtained via WirePayload / ParseRelay alias the
//     frame. They are valid only until the frame buffer is reused —
//     consumers that need the data past the current cell (stream
//     delivery, async control handling) must copy it out first.
//   - Never PutWire a buffer twice, and never touch one after PutWire.
//
// The pools are warm-path optimizations: after startup, steady-state
// forwarding performs zero allocations.

var wirePool = sync.Pool{
	New: func() any { return new([Size]byte) },
}

// GetWire returns a Size-byte wire buffer from the pool.
func GetWire() *[Size]byte { return wirePool.Get().(*[Size]byte) }

// PutWire returns a buffer obtained from GetWire to the pool.
func PutWire(buf *[Size]byte) { wirePool.Put(buf) }
