package torclient

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/simnet"
)

// TestTapParityUnderCoalescing locks in the tap's per-cell granularity
// in both directions: cells written in one batched link write, and cells
// delivered back in arbitrary fragment sizes, must produce exactly one
// tap event per cell each way.
func TestTapParityUnderCoalescing(t *testing.T) {
	const n = 12

	var mu sync.Mutex
	var outEvents, inEvents int
	tap := func(dir, size int, _ time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if size != cell.Size {
			t.Errorf("tap event size = %d, want %d", size, cell.Size)
		}
		switch dir {
		case +1:
			outEvents++
		case -1:
			inEvents++
		default:
			t.Errorf("tap event dir = %d", dir)
		}
	}

	layer, _ := testLayers(t)
	circ, far := newLinkCircuit(t, simnet.NewNetwork(simnet.NewClock(0.001), time.Millisecond), 0, layer)
	circ.tap = tap

	// Outbound: one originated run packs all n cells into a single link write.
	if _, err := circ.originate(hopEnd, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, make([]byte, n*cell.MaxRelayData)); err != nil {
		t.Fatal(err)
	}
	wire := make([]byte, n*cell.Size)
	if _, err := io.ReadFull(far, wire); err != nil {
		t.Fatal(err)
	}

	// Inbound: deliver the written bytes back in ragged chunks — bigger
	// than a cell, smaller than a cell, never aligned. The cells are not
	// recognized on the way back and are dropped, after the tap saw them.
	for _, k := range []int{cell.Size + 100, 37, 3 * cell.Size, 200, len(wire)} {
		k = min(k, len(wire))
		circ.onDeliver(wire[:k], false)
		wire = wire[k:]
	}

	mu.Lock()
	defer mu.Unlock()
	if outEvents != n {
		t.Errorf("outbound tap events = %d, want %d", outEvents, n)
	}
	if inEvents != n {
		t.Errorf("inbound tap events = %d, want %d", inEvents, n)
	}
	if outEvents != inEvents {
		t.Errorf("tap direction parity broken: %d out vs %d in", outEvents, inEvents)
	}
}
