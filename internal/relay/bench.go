package relay

import (
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/otr"
)

// discardLink is a link that swallows every write and never holds a
// backlog: the egress of the forward benchmark.
type discardLink struct{}

func (discardLink) Read([]byte) (int, error)          { return 0, net.ErrClosed }
func (discardLink) Write(p []byte) (int, error)       { return len(p), nil }
func (discardLink) Close() error                      { return nil }
func (discardLink) LocalAddr() net.Addr               { return nil }
func (discardLink) RemoteAddr() net.Addr              { return nil }
func (discardLink) SetDeadline(time.Time) error       { return nil }
func (discardLink) SetReadDeadline(time.Time) error   { return nil }
func (discardLink) SetWriteDeadline(time.Time) error  { return nil }
func (discardLink) SetDeliverFunc(func([]byte, bool)) {}
func (discardLink) WriteAsync([]byte) error           { return nil }
func (discardLink) Backlog() int                      { return 0 }
func (discardLink) OnDrain(func())                    {}

// newBenchCircuit is an established middle-hop circuit whose links are
// discardLinks, with hop keys drawn from rng.
func newBenchCircuit(r *Relay, rng *mrand.Rand) *circuit {
	keys := make([]byte, otr.KeyMaterialLen)
	rng.Read(keys)
	layer, err := otr.NewLayer(keys)
	if err != nil {
		panic(err)
	}
	c := &circuit{relay: r, conn: discardLink{}, next: discardLink{}}
	c.establish(rng.Uint32(), layer)
	c.extended, c.nextCircID = true, rng.Uint32()
	return c
}

// RunParallelForwardBench measures the middle-hop forward path in
// isolation: `circuits` circuits, each fed cellsPerCircuit random
// (unrecognized) relay cells in deliveries of cell.BurstCells cells (what
// a saturated link hands its callback), by `workers` goroutines that
// split the circuits between them — reassembly, decrypt, recognition
// check, circuit-ID rewrite, WriteAsync into a discarding egress and the
// egress bound's check. It returns aggregate forwarded cells/s at the
// caller's runtime.GOMAXPROCS.
func RunParallelForwardBench(workers, circuits, cellsPerCircuit int) float64 {
	workers = max(workers, 1)
	r := &Relay{cfg: Config{Quiet: true}, m: newRelayMetrics(nil)}
	rng := mrand.New(mrand.NewSource(42))
	cs := make([]*circuit, circuits)
	for i := range cs {
		cs[i] = newBenchCircuit(r, rng)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, cell.BurstCells*cell.Size)
			for ci := w; ci < circuits; ci += workers {
				// A fixed template per circuit; decrypting random bytes yields
				// random bytes, so cells stay unrecognized (a 2^-16 accidental
				// recognized-field hit still fails digest verification and
				// forwards like any other cell).
				var tmpl [cell.Size]byte
				mrand.New(mrand.NewSource(int64(ci))).Read(tmpl[:])
				cell.SetWireCmd(tmpl[:], cell.CmdRelay)
				for sent := 0; sent < cellsPerCircuit; {
					k := min(cell.BurstCells, cellsPerCircuit-sent)
					for j := 0; j < k; j++ {
						copy(buf[j*cell.Size:], tmpl[:])
					}
					cs[ci].onDeliver(buf[:k*cell.Size], false)
					sent += k
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(circuits*cellsPerCircuit) / time.Since(start).Seconds()
}
