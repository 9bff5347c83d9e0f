package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/obs"
	"github.com/bento-nfv/bento/internal/otr"
	"github.com/bento-nfv/bento/internal/relay"
	"github.com/bento-nfv/bento/internal/testbed"
)

// DatapathConfig sizes the cell-datapath experiment: steady-state
// throughput through a full 3-hop circuit (the path every byte of Figure
// 5's downloads takes) plus an in-process middle-hop forwarding
// microbenchmark that isolates the per-cell codec + crypto cost from the
// emulator's link bookkeeping.
type DatapathConfig struct {
	// Bytes is the payload volume pushed in each direction of the
	// end-to-end test.
	Bytes int
	// MicroCells is the number of cells pumped through the middle-hop
	// microbenchmark.
	MicroCells int
	// ClockScale maps virtual to real time; the datapath experiment wants
	// the emulation CPU-bound, so it runs with near-zero link delay.
	ClockScale float64
	// ParallelCircuits and ParallelCellsPerCircuit size the sharded
	// worker-pool sweep: that many middle-hop circuits fed through
	// relay.RunParallelForwardBench at each GOMAXPROCS setting in
	// ParallelProcs.
	ParallelCircuits        int
	ParallelCellsPerCircuit int
	ParallelProcs           []int
	Seed                    int64
	// Obs, when non-nil, attaches live telemetry to the end-to-end
	// deployment (the observability ablation compares runs with and
	// without it).
	Obs *obs.Registry
}

// DefaultDatapathConfig returns the quick configuration.
func DefaultDatapathConfig() DatapathConfig {
	return DatapathConfig{
		Bytes:                   8 << 20,
		MicroCells:              200_000,
		ClockScale:              0.0002,
		ParallelCircuits:        64,
		ParallelCellsPerCircuit: 3_000,
		ParallelProcs:           []int{1, 2, 4, 8},
		Seed:                    1,
	}
}

// DatapathResult reports steady-state cell throughput. All rates are
// wall-clock (the experiment is configured to be CPU-bound, so wall-clock
// throughput measures the datapath implementation, not the emulated
// network).
type DatapathResult struct {
	// End-to-end 3-hop circuit, client -> exit (forward) and exit ->
	// client (backward).
	ForwardCellsPerSec  float64 `json:"forward_cells_per_sec"`
	ForwardMBPerSec     float64 `json:"forward_mb_per_sec"`
	BackwardCellsPerSec float64 `json:"backward_cells_per_sec"`
	BackwardMBPerSec    float64 `json:"backward_mb_per_sec"`

	// Middle-hop forwarding microbenchmark: read one cell, peel this
	// hop's layer, fail recognition, re-address, and write it out —
	// the steady-state inner loop of every relay on every circuit.
	MicroPooledCellsPerSec float64 `json:"micro_pooled_cells_per_sec"`

	// Sharded worker-pool sweep: aggregate middle-hop forwarding
	// throughput across ParallelCircuits circuits, keyed by the
	// GOMAXPROCS value the measurement ran at. ParallelScaling4x is
	// rate(4)/rate(1) and is measured only on a host with at least four
	// cores (HostCPUs): with fewer, the ratio is scheduler overhead, not
	// speedup, so it is written as null and ParallelScaling says
	// "unmeasured" instead of a number that looks like a result.
	ParallelForwardCellsPerSec map[string]float64 `json:"parallel_forward_cells_per_sec,omitempty"`
	ParallelScaling4x          *float64           `json:"parallel_scaling_4x"`
	ParallelScaling            string             `json:"parallel_scaling"`
	HostCPUs                   int                `json:"host_cpus"`

	// ForwardFloorCellsPerSec is the regression floor for the
	// single-core end-to-end forward rate; check.sh fails the build if
	// a fresh run lands below it.
	ForwardFloorCellsPerSec float64 `json:"forward_floor_cells_per_sec"`

	Bytes      int   `json:"bytes_per_direction"`
	MicroCells int   `json:"micro_cells"`
	Seed       int64 `json:"seed"`
}

// DatapathForwardFloor is 0.8x the end-to-end forward rate recorded when
// the pooled datapath landed (164105 cells/s); dipping below it means a
// real regression, not run-to-run noise.
const DatapathForwardFloor = 130_000.0

// String renders the result table.
func (r *DatapathResult) String() string {
	var b strings.Builder
	b.WriteString("Datapath: steady-state cell throughput (wall-clock)\n\n")
	fmt.Fprintf(&b, "3-hop circuit, %d MB per direction:\n", r.Bytes>>20)
	fmt.Fprintf(&b, "  forward  (client->exit): %10.0f cells/s  %7.2f MB/s\n",
		r.ForwardCellsPerSec, r.ForwardMBPerSec)
	fmt.Fprintf(&b, "  backward (exit->client): %10.0f cells/s  %7.2f MB/s\n",
		r.BackwardCellsPerSec, r.BackwardMBPerSec)
	fmt.Fprintf(&b, "\nmiddle-hop forward microbenchmark (%d cells):\n", r.MicroCells)
	fmt.Fprintf(&b, "  zero-copy pooled codec:    %10.0f cells/s\n", r.MicroPooledCellsPerSec)
	if len(r.ParallelForwardCellsPerSec) > 0 {
		fmt.Fprintf(&b, "\nsharded worker-pool sweep (%d-core host):\n", r.HostCPUs)
		for _, p := range []int{1, 2, 4, 8, 16} {
			rate, ok := r.ParallelForwardCellsPerSec[strconv.Itoa(p)]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  GOMAXPROCS=%-2d %10.0f cells/s\n", p, rate)
		}
		if r.ParallelScaling4x != nil {
			fmt.Fprintf(&b, "  scaling 4x/1x: %.2fx\n", *r.ParallelScaling4x)
		} else {
			fmt.Fprintf(&b, "  scaling 4x/1x: %s\n", r.ParallelScaling)
		}
	}
	return b.String()
}

// WriteJSONFile records the result machine-readably so the perf
// trajectory across PRs can be tracked.
func (r *DatapathResult) WriteJSONFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(path, blob, 0o644)
}

const (
	datapathSinkPort = 9950
	datapathOpUpload = 'U'
	datapathOpDown   = 'D'
)

// RunDatapath measures the cell datapath end to end and in isolation.
func RunDatapath(cfg DatapathConfig) (*DatapathResult, error) {
	if cfg.Bytes < cell.MaxRelayData || cfg.MicroCells < 1 {
		return nil, fmt.Errorf("bench: bad datapath config %+v", cfg)
	}
	res := &DatapathResult{
		Bytes:                   cfg.Bytes,
		MicroCells:              cfg.MicroCells,
		Seed:                    cfg.Seed,
		ParallelScaling:         "unmeasured",
		HostCPUs:                runtime.NumCPU(),
		ForwardFloorCellsPerSec: DatapathForwardFloor,
	}

	if err := runDatapathE2E(cfg, res); err != nil {
		return nil, err
	}
	res.MicroPooledCellsPerSec = runMicroPooled(cfg.MicroCells)
	runDatapathParallel(cfg, res)
	return res, nil
}

// runDatapathParallel sweeps GOMAXPROCS and drives the relay's real
// worker-pool forwarding path (sharded circuit table, per-circuit worker
// affinity, batched crypto) over many circuits at once. This is the
// experiment the end-to-end run cannot express: the 3-hop meter circuit
// is a single ordered cell stream, so its rate is one circuit's rate no
// matter how many cores exist.
func runDatapathParallel(cfg DatapathConfig, res *DatapathResult) {
	if cfg.ParallelCircuits < 1 || cfg.ParallelCellsPerCircuit < 1 || len(cfg.ParallelProcs) == 0 {
		return
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	res.ParallelForwardCellsPerSec = make(map[string]float64, len(cfg.ParallelProcs))
	for _, p := range cfg.ParallelProcs {
		runtime.GOMAXPROCS(p)
		rate := relay.RunParallelForwardBench(p, cfg.ParallelCircuits, cfg.ParallelCellsPerCircuit)
		res.ParallelForwardCellsPerSec[strconv.Itoa(p)] = rate
	}
	r1, ok1 := res.ParallelForwardCellsPerSec["1"]
	r4, ok4 := res.ParallelForwardCellsPerSec["4"]
	if ok1 && ok4 && r1 > 0 && res.HostCPUs >= 4 {
		scaling := r4 / r1
		res.ParallelScaling4x = &scaling
		res.ParallelScaling = "measured"
	}
}

// runDatapathE2E pushes cfg.Bytes through a 3-hop circuit in each
// direction against a sink host and records wall-clock rates. Link delay
// is near zero and egress unlimited, so throughput is bounded by the
// datapath implementation (codec, crypto, per-cell bookkeeping), which is
// exactly what this experiment tracks.
func runDatapathE2E(cfg DatapathConfig, res *DatapathResult) error {
	w, err := testbed.New(testbed.Config{
		Relays:     3,
		BentoNodes: 0,
		ClockScale: cfg.ClockScale,
		LinkDelay:  time.Microsecond,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return err
	}
	defer w.Close()

	sinkHost := w.Net.AddHost("sink", 0)
	ln, err := sinkHost.Listen(datapathSinkPort)
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveDatapathSink(conn)
		}
	}()

	cli := w.NewTorClient("meter", cfg.Seed)
	path := w.Consensus.Relays
	if len(path) < 3 {
		return fmt.Errorf("bench: want 3 relays, consensus has %d", len(path))
	}
	circ, err := cli.BuildCircuit(path[:3])
	if err != nil {
		return err
	}
	defer circ.Close()

	stream, err := circ.OpenStream(fmt.Sprintf("sink:%d", datapathSinkPort))
	if err != nil {
		return err
	}
	defer stream.Close()

	cells := float64((cfg.Bytes + cell.MaxRelayData - 1) / cell.MaxRelayData)
	mb := float64(cfg.Bytes) / (1 << 20)

	// Forward: upload cfg.Bytes, wait for the sink's 1-byte ack so the
	// clock covers full delivery.
	var hdr [9]byte
	hdr[0] = datapathOpUpload
	binary.BigEndian.PutUint64(hdr[1:], uint64(cfg.Bytes))
	payload := make([]byte, 64<<10)
	start := time.Now()
	if _, err := stream.Write(hdr[:]); err != nil {
		return err
	}
	remaining := cfg.Bytes
	for remaining > 0 {
		n := len(payload)
		if n > remaining {
			n = remaining
		}
		if _, err := stream.Write(payload[:n]); err != nil {
			return err
		}
		remaining -= n
	}
	var ack [1]byte
	if _, err := io.ReadFull(stream, ack[:]); err != nil {
		return fmt.Errorf("bench: upload ack: %w", err)
	}
	fwd := time.Since(start).Seconds()
	res.ForwardCellsPerSec = cells / fwd
	res.ForwardMBPerSec = mb / fwd

	// Backward: ask the sink to stream cfg.Bytes down.
	hdr[0] = datapathOpDown
	start = time.Now()
	if _, err := stream.Write(hdr[:]); err != nil {
		return err
	}
	got := 0
	for got < cfg.Bytes {
		n, err := stream.Read(payload)
		got += n
		if err != nil {
			return fmt.Errorf("bench: download after %d bytes: %w", got, err)
		}
	}
	bwd := time.Since(start).Seconds()
	res.BackwardCellsPerSec = cells / bwd
	res.BackwardMBPerSec = mb / bwd
	return nil
}

// serveDatapathSink speaks the trivial meter protocol: 'U'+n = drain n
// bytes then ack, 'D'+n = write n bytes.
func serveDatapathSink(conn io.ReadWriteCloser) {
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for {
		var hdr [9]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint64(hdr[1:]))
		switch hdr[0] {
		case datapathOpUpload:
			if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
				return
			}
			if _, err := conn.Write([]byte{1}); err != nil {
				return
			}
		case datapathOpDown:
			remaining := n
			for remaining > 0 {
				c := len(buf)
				if c > remaining {
					c = remaining
				}
				if _, err := conn.Write(buf[:c]); err != nil {
					return
				}
				remaining -= c
			}
		default:
			return
		}
	}
}

// microLayer builds one relay-side crypto layer from fixed key material.
func microLayer() *otr.Layer {
	keys := make([]byte, otr.KeyMaterialLen)
	for i := range keys {
		keys[i] = byte(i*7 + 3)
	}
	l, err := otr.NewLayer(keys)
	if err != nil {
		panic(err)
	}
	return l
}

// ringReader serves the same wire frame forever, modeling a saturated
// inbound link without emulator overhead.
type ringReader struct {
	frame []byte
	off   int
}

func (r *ringReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func microFrame() []byte {
	frame := make([]byte, cell.Size)
	c := &cell.Cell{CircID: 7, Cmd: cell.CmdRelay}
	for i := range c.Payload {
		c.Payload[i] = byte(i*13 + 1)
	}
	copy(frame, c.Marshal())
	return frame
}

// runMicroPooled measures one relay's forwarding inner loop in
// isolation — read a cell, apply this hop's forward keystream, fail
// recognition, re-address it to the next hop, and write it out — on the
// zero-copy codec: one reused wire buffer, in-place decrypt, in-place
// circuit-ID rewrite, and batched writes (mirroring the per-link
// BatchWriter, which coalesces up to a bounded number of queued cells
// into a single conn.Write).
func runMicroPooled(cells int) float64 {
	const batchCells = 64
	layer := microLayer()
	src := &ringReader{frame: microFrame()}
	wire := make([]byte, cell.Size)
	batch := make([]byte, 0, batchCells*cell.Size)
	start := time.Now()
	for i := 0; i < cells; i++ {
		if err := cell.ReadWire(src, wire); err != nil {
			panic(err)
		}
		payload := cell.WirePayload(wire)
		layer.ApplyForward(payload)
		if cell.Recognized(payload) && layer.VerifyForward(payload, cell.DigestOffset) {
			continue // not expected: frames are addressed further down
		}
		cell.SetWireCircID(wire, 9)
		batch = append(batch, wire...)
		if len(batch) == cap(batch) {
			if _, err := io.Discard.Write(batch); err != nil {
				panic(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		io.Discard.Write(batch)
	}
	return float64(cells) / time.Since(start).Seconds()
}
